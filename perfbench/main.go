// Command perfbench is the canonical serving benchmark. It generates SSB
// data from a seed, serves it through the HTTP server on loopback
// listeners, drives one workload for a fixed time, checks every result it
// can against an independent hash-join oracle, and prints every metric by
// name with its unit:
//
//	go run . --workload adhoc --seed 1 --seconds 30 --trace 0
//
// Workloads are adhoc, ingest and sharded (see README.md). With
// --trace 0 the run is untraced and reports the end-to-end metrics; with
// --trace 1 it alternates untraced and traced one-second slices and
// reports the per-layer metrics. The last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. The command
// exits non-zero when a check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "adhoc, ingest or sharded")
		seed     = flag.Int64("seed", 1, "seed of the data and the request streams")
		seconds  = flag.Int("seconds", 30, "measured seconds: the phase, then the append probe of a read-only workload")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	cfg := config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, sf: 1, setups: 3,
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(2)
	}
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	sf       float64
	setups   int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result; its JSON form is the last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string // metric names in print order
	notes []string // human-readable findings
}

func (r *report) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes one line per metric and note, then the JSON line.
func (r *report) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-28s %14.4f %s\n", name, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
