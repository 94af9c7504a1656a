package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one job or request share an ID; Parent
// indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	ID     int64         `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark writes them out. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, id int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds an already-measured span, for intervals measured outside
// the tracer (an HTTP request timed from its due time).
func (t *tracer) record(name string, id int64, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// layerTime is the summed self time and call count of one span name.
type layerTime struct {
	Self  time.Duration
	Calls int
}

// selfTimes sums each span name's self time: the span's duration minus
// the part of its interval covered by its children. Overlapping children
// are merged first, so concurrent child calls are not subtracted twice,
// and child time outside the parent's interval is ignored.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		covered := coveredTime(s, spans, children[i])
		lt := out[s.Name]
		lt.Self += s.End - s.Start - covered
		lt.Calls++
		out[s.Name] = lt
	}
	return out
}

// coveredTime is the length of the union of the child intervals,
// clipped to the parent's interval.
func coveredTime(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if b < a {
			continue
		}
		a, b = max(a, parent.Start), min(b, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
