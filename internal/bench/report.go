package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// Host describes the machine and process a benchmark ran on, embedded in
// every JSON report so a number is never separated from its context. The
// 1-CPU caveat from ROADMAP is self-describing here: when the process has
// a single scheduling slot, Note says so, and readers of parallel-scaling
// results know speedups cannot exceed 1.
type Host struct {
	// Date is the run date, RFC 3339.
	Date       string `json:"date"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// Note flags configurations that shape the numbers (set automatically;
	// empty otherwise).
	Note string `json:"note,omitempty"`
}

// HostInfo captures the current process's Host record.
func HostInfo() Host {
	h := Host{
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if h.GOMAXPROCS == 1 {
		h.Note = "GOMAXPROCS=1: parallel speedups are bounded by 1 on this run"
	}
	return h
}

// Table pairs a complexity table with its title for the JSON report.
type Table struct {
	Title string     `json:"title"`
	Rows  []TableRow `json:"rows"`
}

// Report is the machine-readable form of a benchfig run: everything the
// text printers show, plus the Host stamp.
type Report struct {
	Host     Host           `json:"host"`
	Series   []Series       `json:"series,omitempty"`
	Tables   []Table        `json:"tables,omitempty"`
	Blowup   []BlowupPoint  `json:"blowup,omitempty"`
	Parallel []ParallelCase `json:"parallel,omitempty"`
	Stream   *StreamCase    `json:"stream,omitempty"`
	MinCover *MinCoverRun   `json:"mincover,omitempty"`

	// Incremental is the Σ-edit ablation (warm CoverSession vs full
	// recompile); IncrementalPatch is its daemon PATCH segment with the
	// memo-carryover counters.
	Incremental      []IncrementalCase `json:"incremental,omitempty"`
	IncrementalPatch *IncrementalPatch `json:"incremental_patch,omitempty"`
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("bench: encoding report: %w", err)
	}
	return nil
}
