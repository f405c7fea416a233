package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Tracing for the per-layer run. Spans are recorded from the benchmark's
// own files, around calls into each package's public functions — the
// program under test carries no instrumentation — kept in memory, and
// written out once when the run ends. A nil *tracer records nothing, so
// the same code path runs traced and untraced.

// span is one timed call: what ran, when (ns from the tracer's origin),
// which span caused it, and which request (here: which tick or request
// number) it belongs to. Parent is 0 for a root; IDs start at 1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.origin).Nanoseconds()})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.origin).Nanoseconds()
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (overlapping children are not counted twice, and a
// child is clipped to its parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upto := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// write dumps every span, with self times, as JSON.
func (t *tracer) write(path string) error {
	self := selfTimes(t.spans)
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[s.ID]}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
