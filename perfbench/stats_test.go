package main

import (
	"context"
	"math"
	"testing"
	"time"
)

// tail reports the nearest-rank percentile only where at least
// tailBeyond samples lie beyond it; tailFits says where that is.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	beyond := func(samples []float64, p int) int {
		v, c := percentile(samples, p), 0
		for _, x := range samples {
			if x > v {
				c++
			}
		}
		return c
	}
	for n := 1; n <= 1000; n++ {
		samples := make([]float64, n)
		for i := range samples {
			samples[n-1-i] = float64(i) // descending, to show the order does not matter
		}
		for p := 0; p <= 100; p++ {
			fits := beyond(samples, p) >= tailBeyond
			if tailFits(n, p) != fits {
				t.Fatalf("n=%d p%d: tailFits = %v, but %d samples lie beyond", n, p, !fits, beyond(samples, p))
			}
			v := tail(samples, p)
			if fits && v != percentile(samples, p) || !fits && !math.IsNaN(v) {
				t.Fatalf("n=%d p%d: tail = %v with %d samples beyond", n, p, v, beyond(samples, p))
			}
		}
	}
	for _, c := range []struct{ n, p int }{{11, 9}, {20, 50}, {40, 75}, {100, 90}, {120, 91}, {160, 93}, {1000, 99}} {
		if !tailFits(c.n, c.p) || tailFits(c.n, c.p+1) {
			t.Errorf("n=%d: p%d should be the highest percentile with %d beyond", c.n, c.p, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v", got)
	}
}

// A sender that stalls holds back every request behind it: the open
// loop must charge that wait to the delayed requests, from their due
// times, and the generator's lateness must show it.
func TestOpenLoopTimesFromDueAndShowsStalls(t *testing.T) {
	const (
		n     = 60
		every = 2 * time.Millisecond
		stall = 120 * time.Millisecond
	)
	loop := openLoop{lanes: make([][]int, 2)}
	for k := 0; k < n; k++ {
		loop.due = append(loop.due, time.Duration(k)*every)
		loop.lanes[k%2] = append(loop.lanes[k%2], k)
	}
	run := func(stallAt int) ([]sent, float64) {
		out := loop.run(context.Background(), func(_ context.Context, k int) error {
			if k == stallAt {
				time.Sleep(stall)
			}
			return nil
		})
		var late []float64
		for _, s := range out {
			if s.late < 0 || s.latency < s.late {
				t.Fatalf("request issued early or finished before it was issued: %+v", s)
			}
			late = append(late, ms(s.late))
		}
		return out, newLayers().metrics(0, late, 90)["loadgen.late_tail_ms"]
	}

	_, calm := run(-1)
	out, stalled := run(10)
	if stalled < ms(stall)/2 {
		t.Errorf("loadgen.late_tail_ms = %.1f after a %v stall; the stall does not show", stalled, stall)
	}
	if calm >= stalled/4 {
		t.Errorf("loadgen.late_tail_ms = %.1f without a stall, %.1f with one", calm, stalled)
	}
	// Request 12 shares the stalled lane and was due 4ms after request
	// 10 started its stall, so it waited most of the stall: its latency,
	// counted from its due time, includes that wait.
	if out[12].late < stall-10*every || out[12].latency < out[12].late {
		t.Errorf("request 12: late %v, latency %v; want both to include the %v stall", out[12].late, out[12].latency, stall)
	}
	// The other lane is not held back.
	if out[13].late > stall/2 {
		t.Errorf("request 13 on the free lane was %v late", out[13].late)
	}
}

func TestStaggeredFillsCampaignsInOrderAndSpreadsCloses(t *testing.T) {
	const workers, open = 12, 4
	envs := staggered(200, workers, open)
	if len(envs) != 200 {
		t.Fatalf("got %d envelopes", len(envs))
	}
	next := map[int]int{}
	var fullAt []int
	for k, e := range envs {
		if e.worker != next[e.c] {
			t.Fatalf("envelope %d: campaign %d got worker %d, want %d", k, e.c, e.worker, next[e.c])
		}
		next[e.c]++
		if next[e.c] == workers {
			fullAt = append(fullAt, k)
		}
	}
	// After the ramp, one campaign fills every step rounds of open
	// envelopes each.
	for i := 2; i < len(fullAt); i++ {
		if gap := fullAt[i] - fullAt[i-1]; gap != workers {
			t.Errorf("campaigns %d and %d filled %d envelopes apart, want %d", i-1, i, gap, workers)
		}
	}
}
