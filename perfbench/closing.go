package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"runtime"
	"time"

	"imc2/internal/wire"
)

// closeOp is one close, from its POST until its settled report has been
// fetched, with what polling saw of its admission on the way.
type closeOp struct {
	e     *entry
	start time.Time
	end   time.Time
	// refused is set when platformd answered the close with 503 at least
	// once; wire.Client retried it, but the attempt counts as failed.
	refused bool
	// queuedAt and runningAt are when the close was first seen queued
	// for an admission slot and first seen running (or finished).
	queuedAt, runningAt time.Time
}

// observe folds one polled snapshot of the campaign into the op.
func (op *closeOp) observe(info wire.CampaignInfo, at time.Time) {
	switch {
	case info.SettleAdmission == "queued":
		if op.queuedAt.IsZero() {
			op.queuedAt = at
		}
	case info.SettleAdmission == "running", info.State == "settled", info.SettleError != "":
		if op.runningAt.IsZero() {
			op.runningAt = at
		}
	}
}

// wait is how long the close was seen queued before it was seen running.
func (op *closeOp) wait() time.Duration {
	if op.queuedAt.IsZero() || op.runningAt.IsZero() {
		return 0
	}
	return op.runningAt.Sub(op.queuedAt)
}

// close posts one close. A close that fails outright is counted failed
// and returns nil; otherwise the op must be awaited.
func (r *run) close(ctx context.Context, e *entry) *closeOp {
	path := "/v2/campaigns/" + url.PathEscape(e.id) + "/close"
	before := r.t.refusals(path)
	op := &closeOp{e: e, start: time.Now()}
	info, err := r.cl.CloseCampaign(ctx, e.id)
	e.closed = true
	if err != nil {
		r.tally.closeFailed("close %s: %v", e.id, err)
		return nil
	}
	op.refused = r.t.refusals(path) > before
	op.observe(*info, time.Now())
	return op
}

// pollOnce reads the listing window that covers ops in one request and
// finishes every op whose campaign has settled (fetching its report) or
// whose settle was refused. It returns the ops still pending.
func (r *run) pollOnce(ctx context.Context, ops []*closeOp) ([]*closeOp, error) {
	lo, hi := ops[0].e.idx, ops[0].e.idx
	for _, op := range ops {
		lo, hi = min(lo, op.e.idx), max(hi, op.e.idx)
	}
	page, err := r.cl.Campaigns(ctx, lo, hi-lo+1)
	if err != nil {
		return nil, fmt.Errorf("polling campaigns: %w", err)
	}
	at := time.Now()
	var pending []*closeOp
	for _, op := range ops {
		i := op.e.idx - lo
		if i >= len(page.Campaigns) || page.Campaigns[i].ID != op.e.id {
			return nil, fmt.Errorf("campaign %s is not at listing position %d", op.e.id, op.e.idx)
		}
		info := page.Campaigns[i]
		op.observe(info, at)
		switch {
		case info.State == "settled":
			rep, err := r.cl.CampaignReport(ctx, op.e.id)
			op.end = time.Now()
			if err != nil {
				r.tally.closeFailed("report %s: %v", op.e.id, err)
				continue
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return nil, fmt.Errorf("encoding report: %w", err)
			}
			op.e.report, op.e.settled = b, true
			r.tally.closeDone(op)
		case info.State == "open" && info.SettleError != "":
			op.e.refusal = info.SettleErrorCode
			r.tally.closeFailed("settle %s refused: %s", op.e.id, info.SettleError)
		default:
			// Closing, or still open because the settle has not started.
			pending = append(pending, op)
		}
	}
	return pending, nil
}

// await polls at the workload's fixed interval until every op is done.
func (r *run) await(ctx context.Context, ops []*closeOp) error {
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	tick := time.NewTicker(pollEvery)
	defer tick.Stop()
	for len(ops) > 0 {
		var err error
		if ops, err = r.pollOnce(ctx, ops); err != nil {
			return err
		}
		if len(ops) == 0 {
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("awaiting %d settles: %w", len(ops), ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// closedLoop runs paper-burst and dense-close: each burst creates its
// campaigns, fills each with one batch, closes them all back to back and
// waits until every report is fetched. Only the closes are in the close
// phase that settles_per_s divides by.
func (r *run) closedLoop(ctx context.Context) error {
	list := r.plan.list
	for b := 0; b < len(list); b += r.w.burst {
		group := list[b:min(b+r.w.burst, len(list))]
		for _, e := range group {
			if err := r.create(ctx, e, "bench"); err != nil {
				return err
			}
		}
		for _, e := range group {
			if err := r.fill(ctx, e); err != nil {
				return err
			}
			if r.w.distinct == 0 {
				e.in.release()
			}
		}
		phase := time.Now()
		var ops []*closeOp
		for _, e := range group {
			if op := r.close(ctx, e); op != nil {
				ops = append(ops, op)
			}
		}
		if err := r.await(ctx, ops); err != nil {
			return err
		}
		r.tally.closePhase(time.Since(phase))
	}
	return nil
}

// fill submits a campaign's whole batch in one request, timed to its ack.
// The garbage of generating the batch is collected first, so that the
// benchmark's own collector does not run, and take a core from platformd,
// while the request is timed.
func (r *run) fill(ctx context.Context, e *entry) error {
	_, subs, err := e.in.materialize()
	if err != nil {
		return err
	}
	runtime.GC()
	start := time.Now()
	n, err := r.cl.SubmitBatch(ctx, e.id, subs)
	lat := time.Since(start)
	e.acked += n
	if err == nil && n != len(subs) {
		err = fmt.Errorf("accepted %d of %d", n, len(subs))
	}
	r.tally.submit(lat, err, e.id)
	return nil
}
