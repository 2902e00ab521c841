package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one call from the harness into a module: name, start, end, the span
// that caused it and the run it belongs to. Spans are kept in memory and
// written when the child exits; the end-to-end runs record none (a nil
// *tracer is a no-op), so tracing cannot colour the gated metrics.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Run    string  `json:"run"`
}

// tracer records spans made on one goroutine (the harness drives every
// module call serially), so the open-span stack gives the parent.
type tracer struct {
	run    string
	origin time.Time
	spans  []span
	open   []int
}

func newTracer(run string) *tracer { return &tracer{run: run, origin: time.Now()} }

// begin opens a span and returns its id; pair it with end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Seconds(), ID: id, Parent: parent, Run: t.run})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin).Seconds()
	t.open = t.open[:len(t.open)-1]
}

// do runs fn inside a span and returns its duration in seconds (timed even
// when the tracer is nil, so callers can use the number either way).
func (t *tracer) do(name string, fn func()) float64 {
	id := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start).Seconds()
	t.end(id)
	return d
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) float64 {
	var d float64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microseconds), which chrome://tracing and Perfetto open directly.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Ts: s.Start * 1e6, Dur: (s.End - s.Start) * 1e6,
			Pid: 1, Tid: 1, Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": s.Run},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTime is one row of the per-layer table.
type selfTime struct {
	Layer string
	Calls int
	Total float64
	Self  float64
}

// selfTimes folds spans into per-layer totals. A span's self time is its
// duration minus the part its child spans cover (children of one harness
// goroutine never overlap each other).
func selfTimes(spans []span) []selfTime {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for _, s := range spans {
		l := layerOf(s.Name)
		row := by[l]
		if row == nil {
			row = &selfTime{Layer: l}
			by[l] = row
		}
		row.Calls++
		row.Total += s.End - s.Start
		row.Self += s.End - s.Start - child[s.ID]
	}
	rows := make([]selfTime, 0, len(by))
	for _, r := range by {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows
}

func printSelfTimes(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-12s %6s %10s %10s\n", "layer", "spans", "total_s", "self_s")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-12s %6d %10.4f %10.4f\n", r.Layer, r.Calls, r.Total, r.Self)
	}
}
