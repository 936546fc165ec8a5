package trace

import (
	"testing"
	"time"
)

func TestSelfTimesSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 1, Layer: "federate", Start: 0, End: 100},
		// Two overlapping children cover [10, 60]; a third covers
		// [80, 120], of which only [80, 100] lies inside the parent.
		{ID: 2, Parent: 1, Layer: "httpapi", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "httpapi", Start: 30, End: 60},
		{ID: 4, Parent: 1, Layer: "httpapi", Start: 80, End: 120},
		// An open span counts for nothing.
		{ID: 5, Parent: 1, Layer: "httpapi", Start: 0, End: -1},
	}
	got := SelfTimes(spans)
	if want := time.Duration(100 - 50 - 20); got["federate"] != want {
		t.Errorf("federate self = %v, want %v", got["federate"], want)
	}
	if want := time.Duration(40 + 30 + 40); got["httpapi"] != want {
		t.Errorf("httpapi self = %v, want %v", got["httpapi"], want)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	id := r.Begin("core", "query", 0, 1)
	r.End(id)
	r.Add("core", "query", 0, 1, time.Now(), time.Millisecond)
	if id != 0 || r.Spans() != nil {
		t.Errorf("nil recorder returned span %d and spans %v", id, r.Spans())
	}
}
