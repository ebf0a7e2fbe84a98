package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"imc2/internal/auction"
	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/registry"
	"imc2/internal/store"
	"imc2/internal/tracing"
	"imc2/internal/truth"
	"imc2/internal/wire"
)

// settleConfig is the settle configuration platformd runs with its
// default flags: DATE with r=0.8 and α=0.05, then ReverseAuction.
func settleConfig() platform.Config {
	cfg := platform.DefaultConfig()
	cfg.TruthOptions.CopyProb = 0.8
	cfg.TruthOptions.PriorDependence = 0.05
	return cfg
}

func toPlatform(sub wire.Submission) platform.Submission {
	return platform.Submission{Worker: sub.Worker, Price: sub.Price, Answers: sub.Answers}
}

// encodeReport renders a report exactly as a served one is re-encoded.
func encodeReport(rep *platform.Report) ([]byte, error) {
	b, err := json.Marshal(wire.Report{
		Truth:           rep.Truth,
		Winners:         rep.Winners,
		Payments:        rep.Payments,
		WorkerAccuracy:  rep.WorkerAccuracy,
		SocialCost:      rep.SocialCost,
		TotalPayment:    rep.TotalPayment,
		PlatformUtility: rep.PlatformUtility,
		TruthIterations: rep.TruthIterations,
		Converged:       rep.Converged,
	})
	if err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	return b, nil
}

// matchServed checks every served outcome of in against the expected
// one: the same report bytes, or a refusal with the same error code. A
// settle the scheduler turned away for want of queue space says nothing
// about the campaign, so there is nothing to compare.
func (r *run) matchServed(check string, in *input, want []byte, wantErr error) {
	for _, e := range r.plan.list {
		if e.in != in || !e.closed || e.refusal == string(imcerr.CodeUnavailable) {
			continue
		}
		switch {
		case e.settled:
			r.check(check, wantErr == nil && bytes.Equal(e.report, want),
				"campaign %s (seed %d) served a report that differs from the in-process one (in-process error: %v)",
				e.id, in.seed, wantErr)
		case e.refusal != "":
			r.check(check, wantErr != nil && string(imcerr.CodeOf(wantErr)) == e.refusal,
				"campaign %s (seed %d) was refused with %q; in process: %v", e.id, in.seed, e.refusal, wantErr)
		}
	}
}

// reference checks every served report against an in-process
// platform.New → Submit → Settle of the same submissions. Two settles
// run at a time, each on one core; a settle's report does not depend on
// its parallelism.
func (r *run) reference() error {
	type result struct {
		want      []byte
		settleErr error // the settle refused the campaign
		err       error // the check itself failed
	}
	inputs := r.plan.inputs
	results := make([]result, len(inputs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res := &results[i]
				res.want, res.settleErr, res.err = referenceSettle(inputs[i])
				if r.w.distinct == 0 {
					inputs[i].release()
				}
			}
		}()
	}
	for i := range inputs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, in := range inputs {
		if results[i].err != nil {
			return results[i].err
		}
		r.matchServed("report_matches_reference", in, results[i].want, results[i].settleErr)
	}
	return nil
}

// referenceSettle settles one input in a fresh in-process platform and
// returns the encoded report, or the settle's refusal.
func referenceSettle(in *input) (want []byte, settleErr, err error) {
	c, subs, err := in.materialize()
	if err != nil {
		return nil, nil, err
	}
	p, err := platform.New(c.Dataset.Tasks())
	if err != nil {
		return nil, nil, fmt.Errorf("opening reference campaign: %w", err)
	}
	for _, sub := range subs {
		if err := p.Submit(toPlatform(sub)); err != nil {
			return nil, nil, fmt.Errorf("reference submit: %w", err)
		}
	}
	cfg := settleConfig()
	cfg.TruthOptions.Parallelism = 1
	rep, settleErr := p.Run(cfg)
	if settleErr != nil {
		return nil, settleErr, nil
	}
	want, err = encodeReport(rep)
	return want, nil, err
}

// settled is one replayed settle: the report and audit it produced.
type settled struct {
	report *platform.Report
	audit  *platform.Audit
}

// replay is the traced run's second half. It replays the run's inputs
// through each layer's public functions in this process, with a span
// around every call, and checks that the replay reproduces every report
// platformd served; then it replays the run's durable event stream into
// a fresh store and measures the registry in process.
func (r *run) replay(ctx context.Context) error {
	l := r.layers
	l.samples["sched.wait_ms"] = append([]float64(nil), r.tally.waitMS...)
	// The first settle in a process is the slowest; do one untimed.
	if len(r.plan.warmup) > 0 {
		scratch := newLayers()
		root := scratch.root(ctx, "replay.warmup")
		_, err := replaySettle(scratch, root, r.plan.warmup[0])
		root.End()
		if err != nil {
			return err
		}
	}
	outs := make(map[*input]settled)
	for _, in := range r.plan.inputs {
		root := l.root(ctx, "replay.settle")
		root.SetAttr("seed", strconv.FormatInt(in.seed, 10))
		out, err := replaySettle(l, root, in)
		root.SetError(err)
		root.End()
		var want []byte
		if err == nil {
			if want, err = encodeReport(out.report); err != nil {
				return err
			}
			outs[in] = out
		}
		r.matchServed("replay_matches_served", in, want, err)
	}
	if err := r.replayRegistry(ctx); err != nil {
		return err
	}
	if err := r.replayStore(ctx, outs); err != nil {
		return err
	}
	// Let go of the inputs before the store is read back, so that the
	// benchmark holds one copy of the run's submissions at a time.
	if r.w.distinct == 0 {
		for _, in := range r.plan.inputs {
			in.release()
		}
	}
	clear(outs)
	runtime.GC()
	if err := r.replayRecovery(ctx); err != nil {
		return err
	}
	return l.writeSpans(filepath.Join(r.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed)))
}

// replaySettle runs one settle's stages as platform.Settle does, each
// through its layer's public function: dataset assembly, truth
// discovery, the audit ranking, and the auction. A refused settle
// returns the auction's error.
func replaySettle(l *layers, root *tracing.Span, in *input) (settled, error) {
	c, subs, err := in.materialize()
	if err != nil {
		return settled{}, err
	}
	cfg := settleConfig()

	// model: tasks in order, each submission's answers by task ID.
	var ds *model.Dataset
	d, alloc, err := l.call(root, "model.build", func() error {
		b := model.NewBuilder()
		for _, t := range c.Dataset.Tasks() {
			b.AddTask(t)
		}
		for _, sub := range subs {
			ids := make([]string, 0, len(sub.Answers))
			for id := range sub.Answers {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				b.AddObservation(sub.Worker, id, sub.Answers[id])
			}
		}
		var err error
		ds, err = b.Build()
		return err
	})
	if err != nil {
		return settled{}, fmt.Errorf("assembling dataset: %w", err)
	}
	l.add("model.build_ms", ms(d))
	l.add("model.alloc_mb", alloc/(1<<20))
	bids := make([]float64, ds.NumWorkers())
	for _, sub := range subs {
		i, ok := ds.WorkerIndex(sub.Worker)
		if !ok {
			return settled{}, fmt.Errorf("worker %q lost during assembly", sub.Worker)
		}
		bids[i] = sub.Price
	}

	// truth: Algorithm 1, with a recorder for the per-pass times.
	rec := &truth.Recorder{}
	opts := cfg.TruthOptions
	opts.Trace = rec
	var res *truth.Result
	d, alloc, err = l.call(root, "truth.discover", func() error {
		var err error
		res, err = truth.Discover(ds, cfg.TruthMethod, opts)
		return err
	})
	if err != nil {
		return settled{}, fmt.Errorf("truth discovery: %w", err)
	}
	l.add("truth.discover_ms", ms(d))
	l.add("truth.alloc_mb", alloc/(1<<20))
	var dep, indep, est float64
	for _, it := range rec.Iterations {
		dep += it.DependenceSeconds
		indep += it.IndependenceSeconds
		est += it.EstimateSeconds
	}
	l.add("truth.dependence_ms", dep*1e3)
	l.add("truth.independence_ms", indep*1e3)
	l.add("truth.estimate_ms", est*1e3)
	l.add("truth.iterations", float64(res.Iterations))
	capped := 0.0
	if !res.Converged && res.Iterations >= opts.MaxIterations {
		capped = 1
	}
	l.add("truth.capped", capped)

	// platform: the copier audit, the top 20 pairs and every score.
	audit := &platform.Audit{CopierScores: make(map[string]float64, ds.NumWorkers()), Convergence: rec.Iterations}
	d, _, _ = l.call(root, "platform.audit", func() error {
		pairs := res.RankDependentPairs()
		for _, pr := range pairs[:min(len(pairs), 20)] {
			audit.Pairs = append(audit.Pairs, platform.SuspectPair{
				WorkerA: ds.WorkerID(pr.A), WorkerB: ds.WorkerID(pr.B), AtoB: pr.AtoB, BtoA: pr.BtoA,
			})
		}
		for i, score := range res.CopierScores() {
			audit.CopierScores[ds.WorkerID(i)] = score
		}
		return nil
	})
	l.add("platform.audit_ms", ms(d))

	// auction: the SOAC instance, then Algorithm 2.
	var inst *auction.Instance
	var out *auction.Outcome
	d, alloc, err = l.call(root, "auction.reverse", func() error {
		inst = platform.BuildInstance(ds, res.Accuracy, bids)
		var err error
		out, err = auction.ReverseAuction(inst)
		return err
	})
	if err != nil {
		return settled{}, fmt.Errorf("platform: %v: %w", cfg.Mechanism, err)
	}
	l.add("auction.reverse_ms", ms(d))
	l.add("auction.alloc_mb", alloc/(1<<20))
	l.add("auction.winners", float64(len(out.Winners)))

	values := make([]float64, ds.NumTasks())
	for j := range values {
		values[j] = ds.Task(j).Value
	}
	rep := &platform.Report{
		Truth:           res.TruthMap(ds),
		Payments:        make(map[string]float64, len(out.Winners)),
		WorkerAccuracy:  make(map[string]float64, ds.NumWorkers()),
		SocialCost:      out.SocialCost,
		TotalPayment:    out.TotalPayment,
		PlatformUtility: auction.PlatformUtility(inst, values, out),
		TruthIterations: res.Iterations,
		Converged:       res.Converged,
	}
	for _, i := range out.Winners {
		id := ds.WorkerID(i)
		rep.Winners = append(rep.Winners, id)
		rep.Payments[id] = out.Payments[i]
	}
	for i, a := range res.WorkerAccuracy(ds) {
		rep.WorkerAccuracy[ds.WorkerID(i)] = a
	}
	return settled{report: rep, audit: audit}, nil
}

// replayRegistry times registry.Campaign.Submit of single envelopes on
// an in-process registry with no store.
func (r *run) replayRegistry(ctx context.Context) error {
	l := r.layers
	root := l.root(ctx, "replay.registry")
	defer root.End()
	reg := registry.New()
	for _, in := range r.plan.inputs[:min(len(r.plan.inputs), 4)] {
		c, subs, err := in.materialize()
		if err != nil {
			return err
		}
		hosted, err := reg.Create("replay", c.Dataset.Tasks(), settleConfig(), false)
		if err != nil {
			return fmt.Errorf("creating replay campaign: %w", err)
		}
		for _, sub := range subs {
			ps := toPlatform(sub)
			d, _, err := l.call(root, "registry.submit", func() error { return hosted.Submit(ps) })
			if err != nil {
				return fmt.Errorf("replaying a submission: %w", err)
			}
			l.add("registry.submit_us", float64(d.Nanoseconds())/1e3)
		}
	}
	return nil
}

// storeEvents is the event stream platformd logs for the run, in the
// order it logs it: a campaign's creation, its submissions (one event
// per request), its close request and its settled report.
func (r *run) storeEvents(outs map[*input]settled) []store.Event {
	cfg := store.ConfigFromPlatform(settleConfig())
	var evs []store.Event
	created := func(e *entry) {
		evs = append(evs, store.Event{Type: store.EventCreated, Campaign: e.id,
			Created: &store.CreatedPayload{Name: "bench", Tasks: e.in.camp.Dataset.Tasks(), Config: cfg}})
	}
	subs := func(e *entry, subs []wire.Submission) {
		recs := make([]store.SubmissionRecord, len(subs))
		for i, sub := range subs {
			recs[i] = store.SubmissionFromPlatform(toPlatform(sub))
		}
		evs = append(evs, store.Event{Type: store.EventSubmissions, Campaign: e.id, Submissions: recs})
	}
	closed := func(e *entry) {
		if !e.closed {
			return
		}
		evs = append(evs, store.Event{Type: store.EventCloseRequested, Campaign: e.id})
		if out, ok := outs[e.in]; ok && e.settled {
			evs = append(evs, store.Event{Type: store.EventSettled, Campaign: e.id, Settled: &store.SettledPayload{
				Report: store.ReportFromPlatform(out.report), Audit: store.AuditFromPlatform(out.audit)}})
		}
	}
	list := r.plan.list
	if r.w.burst == 0 {
		for _, e := range list {
			created(e)
		}
		_, reqs := r.ingestSchedule()
		for _, q := range reqs {
			if q.close {
				closed(q.e)
			} else {
				subs(q.e, q.e.in.subs[q.worker:q.worker+1])
			}
		}
		return evs
	}
	for b := 0; b < len(list); b += r.w.burst {
		group := list[b:min(b+r.w.burst, len(list))]
		for _, e := range group {
			created(e)
		}
		for _, e := range group {
			subs(e, e.in.subs)
		}
		for _, e := range group {
			closed(e)
		}
	}
	return evs
}

// replayStore appends the run's event stream to a fresh FileStore under
// ingest's durability policy (fsync always, a snapshot every 256 events)
// and then snapshots the end state.
func (r *run) replayStore(ctx context.Context, outs map[*input]settled) error {
	l := r.layers
	for _, in := range r.plan.inputs {
		if _, _, err := in.materialize(); err != nil {
			return err
		}
	}
	dir := filepath.Join(r.dir, "replay-store")
	st, err := store.Open(store.Options{Dir: dir, SnapshotEvery: 256, Fsync: store.FsyncAlways})
	if err != nil {
		return fmt.Errorf("opening replay store: %w", err)
	}
	defer st.Close()
	root := l.root(ctx, "replay.store")
	answers := 0
	for _, ev := range r.storeEvents(outs) {
		for _, sub := range ev.Submissions {
			answers += len(sub.Answers)
		}
		d, _, err := l.call(root, "store.append", func() error { return st.Append(ev) })
		if err != nil {
			root.End()
			return fmt.Errorf("replaying %s event: %w", ev.Type, err)
		}
		l.add("store.append_ms", ms(d))
	}
	l.counts["store.snapshots"] = float64(st.Stats().SnapshotsWritten)
	size, err := dirBytes(dir)
	if err != nil {
		root.End()
		return err
	}
	l.counts["store.disk_bytes_per_answer"] = float64(size) / float64(answers)
	d, _, err := l.call(root, "store.snapshot", st.Snapshot)
	root.End()
	if err != nil {
		return fmt.Errorf("snapshotting replay store: %w", err)
	}
	l.counts["store.snapshot_ms"] = ms(d)
	if err := st.Close(); err != nil {
		return fmt.Errorf("closing replay store: %w", err)
	}
	return nil
}

// replayRecovery times what a restart does before it serves: opening a
// store directory (on ingest the one platformd was killed on, elsewhere
// the replay's) and restoring a registry from it.
func (r *run) replayRecovery(ctx context.Context) error {
	l := r.layers
	dir := filepath.Join(r.dir, "replay-store")
	if r.w.durable() {
		dir = r.dataDir
	}
	root := l.root(ctx, "replay.recover")
	defer root.End()
	var opened *store.FileStore
	d, _, err := l.call(root, "store.open", func() error {
		var err error
		opened, err = store.Open(store.Options{Dir: dir, SnapshotEvery: 256, Fsync: store.FsyncAlways})
		return err
	})
	if err != nil {
		return fmt.Errorf("reopening store: %w", err)
	}
	defer opened.Close()
	l.counts["store.open_ms"] = ms(d)
	d, _, err = l.call(root, "registry.restore", func() error {
		_, err := registry.New().Restore(opened.State().Campaigns(), opened.RecoveredAt())
		return err
	})
	if err != nil {
		return fmt.Errorf("restoring registry: %w", err)
	}
	l.counts["registry.restore_ms"] = ms(d)
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("reading store directory: %w", err)
	}
	var n int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, fmt.Errorf("reading store directory: %w", err)
		}
		n += info.Size()
	}
	return n, nil
}

// probeWire times the cheapest call and the report fetch against the
// running daemon, and reads the scheduler's peak queue.
func (r *run) probeWire(ctx context.Context) error {
	l := r.layers
	var settledIDs []string
	for _, e := range r.plan.list {
		if e.settled {
			settledIDs = append(settledIDs, e.id)
		}
	}
	if len(settledIDs) == 0 {
		return fmt.Errorf("no campaign settled")
	}
	root := l.root(ctx, "probe.wire")
	defer root.End()
	for i := 0; i < 200; i++ {
		id := settledIDs[i%len(settledIDs)]
		d, _, err := l.call(root, "wire.campaign", func() error {
			_, err := r.cl.Campaign(ctx, id)
			return err
		})
		if err != nil {
			return fmt.Errorf("probing Campaign: %w", err)
		}
		l.add("wire.rtt_ms", ms(d))
	}
	for i := 0; i < 50; i++ {
		id := settledIDs[i%len(settledIDs)]
		d, _, err := l.call(root, "wire.report", func() error {
			_, err := r.cl.CampaignReport(ctx, id)
			return err
		})
		if err != nil {
			return fmt.Errorf("probing CampaignReport: %w", err)
		}
		l.add("wire.report_ms", ms(d))
	}
	st, err := r.cl.SchedulerStats(ctx)
	if err != nil {
		return fmt.Errorf("reading scheduler stats: %w", err)
	}
	l.counts["sched.peak_queued"] = float64(st.PeakQueuedSettles)
	return nil
}
