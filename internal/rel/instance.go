package rel

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is a row of attribute values in schema order.
type Tuple []string

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports component-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key for the tuple, usable as a map key.
// Values are length-prefixed so distinct tuples never collide.
func (t Tuple) Key() string {
	var b strings.Builder
	for _, v := range t {
		fmt.Fprintf(&b, "%d:%s;", len(v), v)
	}
	return b.String()
}

// Instance is a finite set of tuples over a schema. Duplicates are allowed
// at insertion (bag) but Dedup can restore set semantics; the CFD semantics
// of the paper are insensitive to duplicates.
//
// An instance loaded from a text file can carry source-line provenance:
// InsertLine records the 1-based file line each tuple came from, and Line
// reports it back. Violation reporting uses these authoritative lines (a
// CSV's first data row is line 2, after the header; a quoted multi-line
// field shifts later rows further), so user-facing row numbers never have
// to be reconstructed from tuple ordinals.
type Instance struct {
	Schema *Schema
	Tuples []Tuple

	lines []int // 1-based source line per tuple; nil when untracked
}

// NewInstance creates an empty instance of the schema.
func NewInstance(s *Schema) *Instance {
	return &Instance{Schema: s}
}

// Insert appends a tuple after validating arity and domain membership.
func (in *Instance) Insert(t Tuple) error {
	if len(t) != in.Schema.Arity() {
		return fmt.Errorf("rel: %s: tuple arity %d, want %d", in.Schema.Name, len(t), in.Schema.Arity())
	}
	for i, v := range t {
		if !in.Schema.Attrs[i].Domain.Contains(v) {
			return fmt.Errorf("rel: %s: value %q outside domain of %s", in.Schema.Name, v, in.Schema.Attrs[i].Name)
		}
	}
	in.Tuples = append(in.Tuples, t.Clone())
	if in.lines != nil {
		in.lines = append(in.lines, 0)
	}
	return nil
}

// InsertLine is Insert with source-line provenance: line is the 1-based
// line of the source file the tuple was read from. Mixing Insert and
// InsertLine is allowed; tuples inserted without a line report 0.
func (in *Instance) InsertLine(t Tuple, line int) error {
	if in.lines == nil {
		in.lines = make([]int, len(in.Tuples))
	}
	if err := in.Insert(t); err != nil {
		return err
	}
	in.lines[len(in.lines)-1] = line
	return nil
}

// Line returns tuple i's 1-based source-file line, or 0 when the instance
// carries no provenance for it.
func (in *Instance) Line(i int) int {
	if in.lines == nil || i < 0 || i >= len(in.lines) {
		return 0
	}
	return in.lines[i]
}

// MustInsert is Insert that panics on error; for tests and examples.
func (in *Instance) MustInsert(values ...string) {
	if err := in.Insert(Tuple(values)); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (in *Instance) Len() int { return len(in.Tuples) }

// Value returns tuple i's value for the named attribute.
func (in *Instance) Value(i int, attr string) (string, error) {
	j, ok := in.Schema.Index(attr)
	if !ok {
		return "", fmt.Errorf("rel: %s has no attribute %q", in.Schema.Name, attr)
	}
	return in.Tuples[i][j], nil
}

// Dedup removes duplicate tuples in place, preserving first-occurrence
// order, and returns the instance.
func (in *Instance) Dedup() *Instance {
	seen := make(map[string]bool, len(in.Tuples))
	out := in.Tuples[:0]
	var lines []int
	if in.lines != nil {
		lines = in.lines[:0]
	}
	for i, t := range in.Tuples {
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
			if in.lines != nil {
				lines = append(lines, in.lines[i])
			}
		}
	}
	in.Tuples = out
	in.lines = lines
	return in
}

// Sorted returns the tuples in lexicographic order (for deterministic
// printing); the instance itself is not modified.
func (in *Instance) Sorted() []Tuple {
	out := make([]Tuple, len(in.Tuples))
	copy(out, in.Tuples)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func (in *Instance) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", in.Schema)
	for _, t := range in.Sorted() {
		fmt.Fprintf(&b, "  (%s)\n", strings.Join(t, ", "))
	}
	return b.String()
}

// Database maps relation names to instances over a database schema.
type Database struct {
	Schema    *DBSchema
	Instances map[string]*Instance
}

// NewDatabase creates a database with an empty instance per relation.
func NewDatabase(s *DBSchema) *Database {
	db := &Database{Schema: s, Instances: make(map[string]*Instance)}
	for _, r := range s.Relations() {
		db.Instances[r.Name] = NewInstance(r)
	}
	return db
}

// Instance returns the instance of the named relation (nil if unknown).
func (db *Database) Instance(name string) *Instance { return db.Instances[name] }

// Insert adds a tuple to the named relation.
func (db *Database) Insert(relation string, t Tuple) error {
	in, ok := db.Instances[relation]
	if !ok {
		return fmt.Errorf("rel: unknown relation %q", relation)
	}
	return in.Insert(t)
}

// MustInsert is Insert that panics on error.
func (db *Database) MustInsert(relation string, values ...string) {
	if err := db.Insert(relation, Tuple(values)); err != nil {
		panic(err)
	}
}
