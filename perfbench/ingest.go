package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
)

// request is one scheduled operation of the ingest open loop: one
// worker's single-envelope submission, or the close that follows a
// campaign's last envelope.
type request struct {
	e      *entry
	worker int
	close  bool
}

// envelope is one worker's submission to the c-th campaign of the list.
type envelope struct{ c, worker int }

// staggered orders n envelopes over campaigns of workers envelopes each
// so that open campaigns are filled at once, staggered: campaign c
// receives one envelope a round during rounds [c·step, c·step+workers),
// with step = workers/open. Once the first campaigns are under way,
// open campaigns are filling at any time and one of them fills up every
// step rounds, so closes, and the settles they start, are spread evenly
// over the run instead of arriving together.
func staggered(n, workers, open int) []envelope {
	step := max(workers/open, 1)
	out := make([]envelope, 0, n)
	for round := 0; len(out) < n; round++ {
		for c := max(0, (round-workers)/step); c*step <= round && len(out) < n; c++ {
			if w := round - c*step; w < workers {
				out = append(out, envelope{c: c, worker: w})
			}
		}
	}
	return out
}

// ingestSchedule lays the run's envelopes out at the workload's fixed
// rate, staggered over openCampaigns campaigns. A campaign is closed as
// soon as its last envelope is acknowledged; the campaigns still filling
// when the run ends stay open. All of one campaign's requests go through
// the same sender, so platformd accepts its envelopes in a known order
// and the report is reproducible.
func (r *run) ingestSchedule() (openLoop, []request) {
	var (
		loop openLoop
		reqs []request
	)
	loop.lanes = make([][]int, maxConns)
	add := func(q request, at time.Duration) {
		lane := q.e.idx % maxConns
		loop.lanes[lane] = append(loop.lanes[lane], len(reqs))
		loop.due = append(loop.due, at)
		reqs = append(reqs, q)
	}
	workers := r.w.spec.Workers
	for k, env := range staggered(r.plan.envelopes, workers, r.w.openCampaigns) {
		at := time.Duration(float64(k) / r.w.rate * float64(time.Second))
		e := r.plan.list[env.c]
		add(request{e: e, worker: env.worker}, at)
		if env.worker == workers-1 {
			add(request{e: e, close: true}, at)
		}
	}
	return loop, reqs
}

// openLoop runs ingest: two senders follow the schedule while one poller
// watches the closed campaigns until each report is fetched.
func (r *run) openLoop(ctx context.Context) error {
	loop, reqs := r.ingestSchedule()
	var (
		mu      sync.Mutex
		pending []*closeOp
	)
	sendDone := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		done, finished := sendDone, false
		for {
			mu.Lock()
			ops := pending
			pending = nil
			mu.Unlock()
			if len(ops) > 0 {
				rest, err := r.pollOnce(ctx, ops)
				if err != nil {
					polled <- err
					return
				}
				mu.Lock()
				pending = append(rest, pending...)
				mu.Unlock()
			}
			if finished && len(ops) == 0 {
				polled <- nil
				return
			}
			select {
			case <-ctx.Done():
				polled <- ctx.Err()
				return
			case <-done:
				done, finished = nil, true
			case <-tick.C:
			}
		}
	}()
	sent := loop.run(ctx, func(ctx context.Context, k int) error {
		q := reqs[k]
		if q.close {
			if op := r.close(ctx, q.e); op != nil {
				mu.Lock()
				pending = append(pending, op)
				mu.Unlock()
			}
			return nil
		}
		err := r.cl.SubmitTo(ctx, q.e.id, q.e.in.subs[q.worker])
		if err == nil {
			q.e.acked++
		}
		return err
	})
	close(sendDone)
	if err := <-polled; err != nil {
		return fmt.Errorf("watching ingest closes: %w", err)
	}
	var span time.Duration
	for k, s := range sent {
		r.lateMS = append(r.lateMS, ms(s.late))
		span = max(span, loop.due[k]+s.latency)
		if !reqs[k].close {
			r.tally.submit(s.latency, s.err, reqs[k].e.id)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: ingest sent %d envelopes in %.1fs, %.0f/s against %.0f/s scheduled\n",
		r.plan.envelopes, span.Seconds(), float64(r.plan.envelopes)/span.Seconds(), r.w.rate)
	return nil
}
