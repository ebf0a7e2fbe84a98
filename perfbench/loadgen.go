package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// openLoop is a fixed arrival schedule: request k is due at due[k] after
// the loop starts, whatever happened to earlier requests. Each lane is
// one sender issuing its requests in order, so the number of lanes caps
// the requests in flight (and the connections they need).
type openLoop struct {
	due   []time.Duration
	lanes [][]int
}

// sent is one request's timing. Both figures count from the request's
// due time, so a stall that holds a sender back makes every request it
// delays late, and their latency includes that wait.
type sent struct {
	late    time.Duration // issued − due
	latency time.Duration // completed − due
	err     error
}

// run drives the schedule. No request is issued before it is due; a
// request whose sender is still busy when it falls due goes out as soon
// as the sender frees up. Requests not issued before ctx ends carry
// ctx's error.
//
// Senders sleep in nanosleep(2), not on Go timers: the runtime's poller
// sleeps in whole milliseconds, so a timer fires up to a millisecond
// late, and that delay would be charged to every request. A sender
// asleep in the system call keeps its P, so the loop adds one P per lane
// while it runs, for the rest of the process to use.
func (l openLoop) run(ctx context.Context, send func(ctx context.Context, k int) error) []sent {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + len(l.lanes))
	out := make([]sent, len(l.due))
	start := time.Now()
	var wg sync.WaitGroup
	for _, lane := range l.lanes {
		wg.Add(1)
		go func(lane []int) {
			defer wg.Done()
			for i, k := range lane {
				dueAt := start.Add(l.due[k])
				if err := sleepUntil(ctx, dueAt); err != nil {
					for _, rest := range lane[i:] {
						out[rest].err = err
					}
					return
				}
				issued := time.Now()
				err := send(ctx, k)
				out[k] = sent{late: issued.Sub(dueAt), latency: time.Since(dueAt), err: err}
			}
		}(lane)
	}
	wg.Wait()
	return out
}

// sleepUntil blocks in nanosleep(2) until t, waking at least every
// 20ms to see whether ctx has ended.
func sleepUntil(ctx context.Context, t time.Time) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		wait := time.Until(t)
		if wait <= 0 {
			return nil
		}
		ts := syscall.NsecToTimespec(int64(min(wait, 20*time.Millisecond)))
		// EINTR only cuts the sleep short; the loop sleeps again.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
