package main

import (
	"fmt"
	"sync"
	"time"
)

// tally counts a run's operations. Every submit and every close is
// attempted once; one that errs, is refused, or is answered 503 counts
// as failed and contributes no latency sample.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string

	submitMS []float64
	closeMS  []float64
	waitMS   []float64
	settles  int
	// rates are the closed loop's settles per second of close phase in
	// windows of at least windowSettles settles; window is the one still
	// filling: the settle count it started at and its close phase so far.
	rates  []float64
	window struct {
		from  int
		phase time.Duration
	}
	// first and last bound the open loop's close phase.
	first, last time.Time
}

// windowSettles is how many settles of consecutive bursts a throughput
// window pools. settles_per_s is the median window, so that the few
// seeds that run truth discovery to its iteration cap each slow one
// window instead of deciding the run's figure by how many it drew.
const windowSettles = 8

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.problems) < 100 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

func (t *tally) submit(lat time.Duration, err error, id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.fail("submit to %s: %v", id, err)
		return
	}
	t.attempted++
	t.submitMS = append(t.submitMS, ms(lat))
}

func (t *tally) closeFailed(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fail(format, args...)
}

// closeDone records a close whose report was fetched.
func (t *tally) closeDone(op *closeOp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.settles++
	t.waitMS = append(t.waitMS, ms(op.wait()))
	if t.first.IsZero() || op.start.Before(t.first) {
		t.first = op.start
	}
	if op.end.After(t.last) {
		t.last = op.end
	}
	if op.refused {
		t.fail("close %s was refused with 503 before it was accepted", op.e.id)
		return
	}
	t.attempted++
	t.closeMS = append(t.closeMS, ms(op.end.Sub(op.start)))
}

// closePhase ends one burst's close phase, which lasted d.
func (t *tally) closePhase(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.window.phase += d
	if n := t.settles - t.window.from; n >= windowSettles {
		t.rates = append(t.rates, float64(n)/t.window.phase.Seconds())
		t.window.from, t.window.phase = t.settles, 0
	}
}
