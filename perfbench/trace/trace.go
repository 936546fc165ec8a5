// Package trace is the benchmark's span recorder. The benchmark wraps its
// calls into each layer of the engine in spans; every span carries a name,
// the layer it measures, start and end times, the span that caused it and
// the per-query id shared by all spans of one operation. Spans stay in
// memory while the benchmark runs and are written out once at the end.
//
// A nil *Recorder is valid and records nothing, so untraced passes run the
// same code with tracing off.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root span
	Query  int64  `json:"query"`  // shared by every span of one operation
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Recorder collects spans. It is safe for concurrent use.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// New returns an empty recorder whose span times count from now.
func New() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its id; End closes it. Parent 0 makes a
// root span.
func (r *Recorder) Begin(layer, name string, parent int, query int64) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Query: query,
		Layer: layer, Name: name, Start: now, End: -1,
	})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Add records an already measured interval as a closed span and returns
// its id.
func (r *Recorder) Add(layer, name string, parent int, query int64, start time.Time, d time.Duration) int {
	if r == nil {
		return 0
	}
	s := int64(start.Sub(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Query: query,
		Layer: layer, Name: name, Start: s, End: s + int64(d),
	})
	return len(r.spans)
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes every span as one JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes returns each layer's self time: the summed duration of its
// closed spans minus the part of each span's interval that the span's
// children cover. Open spans are ignored.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval. Children may overlap when they ran in
// parallel.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}
