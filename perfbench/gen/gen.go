// Package gen is the benchmark's open-loop load generator. Requests are
// released on a fixed schedule whether or not earlier ones have finished,
// and each request's latency counts from its scheduled send time, so a
// stall in the system shows up as latency of the requests queued behind
// it rather than as a lower offered rate. At most conns requests are in
// flight at once; the rest wait in the generator's backlog.
package gen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request is one scheduled request. Do performs it on connection conn
// (0 ≤ conn < conns) and reports whether it failed.
type Request struct {
	At time.Duration // scheduled send time, relative to the run's start
	Do func(ctx context.Context, conn int) error
}

// Outcome is what happened to one request. Times are relative to the
// run's start.
type Outcome struct {
	Scheduled  time.Duration
	Dispatched time.Duration // when the generator released it (≥ Scheduled)
	Done       time.Duration
	Released   bool // false: the run was cancelled before its send time
	Sent       bool // false: never sent (cancelled, or in the backlog at the cutoff)
	Err        error
}

// Latency is the request's latency from its scheduled send time.
func (o Outcome) Latency() time.Duration { return o.Done - o.Scheduled }

// Run is the result of one schedule.
type Run struct {
	Outcomes   []Outcome // parallel to the schedule
	MaxBacklog int       // most requests released but not yet sent at once
	Unsent     int       // requests never sent
}

// Play releases reqs on schedule over conns connections and waits for all
// of them. A request that no connection has taken by cutoff (relative to
// the start) is dropped from the backlog unsent; requests already sent run
// to completion. reqs must be sorted by At.
func Play(ctx context.Context, reqs []Request, conns int, cutoff time.Duration) *Run {
	if conns < 1 {
		conns = 1
	}
	out := make([]Outcome, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks and
	// its schedule cannot be held up by busy connections.
	queue := make(chan int, len(reqs))
	var backlog, maxBacklog atomic.Int64
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i := range queue {
				backlog.Add(-1)
				if time.Since(start) > cutoff || ctx.Err() != nil {
					continue
				}
				o := &out[i]
				o.Err = reqs[i].Do(ctx, conn)
				o.Done = time.Since(start)
				o.Sent = true
			}
		}(c)
	}

	timer := time.NewTimer(0)
	<-timer.C
	for i, r := range reqs {
		out[i].Scheduled = r.At
		if wait := r.At - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		out[i].Dispatched = time.Since(start)
		out[i].Released = true
		if n := backlog.Add(1); n > maxBacklog.Load() {
			maxBacklog.Store(n)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()

	run := &Run{Outcomes: out, MaxBacklog: int(maxBacklog.Load())}
	for _, o := range out {
		if !o.Sent {
			run.Unsent++
		}
	}
	return run
}

// Lateness returns how late the generator released each request, in
// dispatch order.
func (r *Run) Lateness() []time.Duration {
	out := make([]time.Duration, 0, len(r.Outcomes))
	for _, o := range r.Outcomes {
		if o.Released {
			out = append(out, o.Dispatched-o.Scheduled)
		}
	}
	return out
}

// Fixed returns n send times at a constant rate, starting at zero.
func Fixed(rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// SelfTest checks the generator against a loopback server whose handler
// stalls once: the requests scheduled during the stall must show the wait
// as latency, while the generator keeps releasing requests on schedule.
func SelfTest(ctx context.Context) error {
	const (
		rate    = 200.0
		n       = 100
		stallAt = 10
		stall   = 150 * time.Millisecond
	)
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == stallAt {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := srv.Client()

	reqs := make([]Request, n)
	for i, at := range Fixed(rate, n) {
		reqs[i] = Request{At: at, Do: func(ctx context.Context, _ int) error {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			return resp.Body.Close()
		}}
	}
	run := Play(ctx, reqs, 1, time.Minute)
	if run.Unsent != 0 {
		return fmt.Errorf("gen self-test: %d requests unsent", run.Unsent)
	}
	// The offered rate must not drop: the last request is released on
	// time although the connection was stalled for 30 send intervals.
	late := run.Lateness()
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	if worst := late[len(late)-1]; worst > 50*time.Millisecond {
		return fmt.Errorf("gen self-test: generator released a request %v late during a stall", worst)
	}
	// The stall must appear as latency of the stalled request and of the
	// ones scheduled behind it.
	behind := 0
	for _, o := range run.Outcomes[stallAt:] {
		if o.Latency() >= stall/3 {
			behind++
		}
	}
	if lat := run.Outcomes[stallAt-1].Latency(); lat < stall {
		return fmt.Errorf("gen self-test: stalled request latency %v < stall %v", lat, stall)
	}
	if behind < 10 {
		return fmt.Errorf("gen self-test: only %d requests behind the stall saw its delay", behind)
	}
	if run.MaxBacklog < 10 {
		return fmt.Errorf("gen self-test: backlog peaked at %d during the stall", run.MaxBacklog)
	}
	return nil
}
