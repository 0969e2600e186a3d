package propagation

import (
	"cfdprop/internal/chase"
	"cfdprop/internal/tableau"
)

func isInconsistent(err error) bool {
	_, ok := err.(tableau.ErrInconsistent)
	return ok
}

func isUndefined(err error) bool {
	_, ok := err.(chase.ErrUndefined)
	return ok
}
