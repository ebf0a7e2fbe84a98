package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"imc2/internal/wire"
)

const (
	// setups is how many times a run launches platformd and warms it
	// up; setup_s is the median.
	setups = 5
	// restarts is how many times a run kills and restarts platformd;
	// recover_s is the fastest, since interference only ever adds time
	// to a start that takes milliseconds without a store.
	restarts = 15
)

// options is one benchmark run.
type options struct {
	platformd string // the platformd binary under test
	out       string // directory for run files, spans and daemon logs
	w         workload
	seed      int64
	seconds   float64
	trace     bool
	// extra campaigns join the front of the list. Tests use them to
	// inject campaigns whose settle platformd refuses.
	extra []*input
}

// run is the state of one benchmark run.
type run struct {
	options
	plan    plan
	dir     string
	dataDir string // the durable workload's -data-dir in use

	t  *transport
	cl *wire.Client
	d  *daemon

	created int      // campaigns platformd lists so far
	warm    []*entry // the last set-up's warm-up campaigns

	tally    *tally
	setupS   []float64
	recoverS []float64
	lateMS   []float64
	peakRSS  float64
	checks   map[string]int
	problems []string

	layers *layers // per-layer measurements; traced runs only
}

// outcome is what a run found.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	checks    map[string]int
	// problems are failed checks and missing metrics; failures are the
	// operations that failed, which are counted but are not errors of
	// the benchmark.
	problems []string
	failures []string
}

// execute runs one workload end to end: set-up, the timed phase, the
// restart, and then either the reference check (trace off) or the
// per-layer replay (trace on).
func execute(ctx context.Context, o options) (*outcome, error) {
	r := &run{options: o, checks: make(map[string]int), tally: &tally{}}
	if o.trace {
		r.layers = newLayers()
	}
	r.plan = makePlan(o.w, o.seed, o.seconds)
	if len(o.extra) > 0 {
		var extra []*entry
		for _, in := range o.extra {
			extra = append(extra, &entry{in: in})
		}
		r.plan.list = append(extra, r.plan.list...)
		r.plan.inputs = append(append([]*input(nil), o.extra...), r.plan.inputs...)
	}
	if err := os.MkdirAll(filepath.Join(o.out, "runs"), 0o755); err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	dir, err := os.MkdirTemp(filepath.Join(o.out, "runs"), o.w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	r.dir = dir
	r.t = installTransport()
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	r.d = &daemon{bin: o.platformd, addr: addr, log: filepath.Join(dir, "platformd.log")}
	r.cl = wire.NewClient(r.d.url())
	defer r.d.kill()

	start := time.Now()
	if err := r.measure(ctx); err != nil {
		return nil, fmt.Errorf("%w (run files kept in %s)", err, dir)
	}
	if err := r.d.kill(); err != nil {
		return nil, err
	}
	measured := time.Now()
	if o.trace {
		err = r.replay(ctx)
	} else {
		err = r.reference()
	}
	if err != nil {
		return nil, fmt.Errorf("%w (run files kept in %s)", err, dir)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %.1fs against platformd, %.1fs checking in process\n",
		o.w.name, o.seed, measured.Sub(start).Seconds(), time.Since(measured).Seconds())
	out := r.outcome()
	if out.correct {
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("removing run directory: %w", err)
		}
	}
	return out, nil
}

// measure runs everything that talks to platformd.
func (r *run) measure(ctx context.Context) error {
	for i := 0; i < setups; i++ {
		if err := r.setup(ctx, i); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if i < setups-1 {
			if err := r.stopForRelaunch(); err != nil {
				return err
			}
		}
	}
	var err error
	if r.w.burst > 0 {
		err = r.closedLoop(ctx)
	} else {
		err = r.openLoop(ctx)
	}
	if err != nil {
		return err
	}
	if r.peakRSS, err = r.d.peakRSSMB(); err != nil {
		return err
	}
	if r.trace {
		if err := r.probeWire(ctx); err != nil {
			return err
		}
	}
	return r.recover(ctx)
}

// setup launches a fresh platformd, waits until it serves, creates what
// the timed phase needs up front, and settles the warm-up campaigns. Its
// duration, from launch until the phase could start, is one setup_s
// sample; generating inputs is not part of it.
func (r *run) setup(ctx context.Context, i int) error {
	for _, in := range r.plan.warmup {
		if _, _, err := in.materialize(); err != nil {
			return err
		}
	}
	if r.w.burst == 0 {
		for _, in := range r.plan.inputs {
			if _, _, err := in.materialize(); err != nil {
				return err
			}
		}
	}
	r.d.args = append([]string(nil), r.w.flags...)
	if r.w.durable() {
		r.dataDir = filepath.Join(r.dir, "data-"+strconv.Itoa(i))
		r.d.args = append(r.d.args, "-data-dir", r.dataDir, "-fsync", "always")
	}
	start := time.Now()
	if err := r.d.start(); err != nil {
		return err
	}
	if err := r.d.awaitServing(ctx, r.cl); err != nil {
		return err
	}
	page, err := r.cl.Campaigns(ctx, 0, 1)
	if err != nil {
		return fmt.Errorf("listing campaigns: %w", err)
	}
	r.created = page.Total
	if r.w.burst == 0 {
		for _, e := range r.plan.list {
			*e = entry{in: e.in}
			if err := r.create(ctx, e, "bench"); err != nil {
				return err
			}
		}
	}
	timed := r.tally
	r.tally = &tally{}
	defer func() { r.tally = timed }()
	r.warm = nil
	for _, in := range r.plan.warmup {
		e := &entry{in: in}
		r.warm = append(r.warm, e)
		if err := r.create(ctx, e, "warm-up"); err != nil {
			return err
		}
		if r.w.burst > 0 {
			if err := r.fill(ctx, e); err != nil {
				return err
			}
		} else {
			for _, sub := range in.subs {
				err := r.cl.SubmitTo(ctx, e.id, sub)
				if err == nil {
					e.acked++
				}
				r.tally.submit(0, err, e.id)
			}
		}
		if op := r.close(ctx, e); op != nil {
			if err := r.await(ctx, []*closeOp{op}); err != nil {
				return err
			}
		}
	}
	if r.tally.failed > 0 {
		return fmt.Errorf("warm-up failed: %v", r.tally.problems)
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return nil
}

// create registers one campaign with platformd from its spec and seed.
func (r *run) create(ctx context.Context, e *entry, name string) error {
	info, err := r.cl.CreateCampaign(ctx, e.in.request(name))
	if err != nil {
		return fmt.Errorf("creating campaign: %w", err)
	}
	e.id, e.idx = info.ID, r.created
	r.created++
	return nil
}

// hosted lists the campaigns the last set-up created, in listing order.
func (r *run) hosted() []*entry {
	var all []*entry
	for _, e := range r.plan.list {
		if e.id != "" {
			all = append(all, e)
		}
	}
	return append(all, r.warm...)
}

// recover kills platformd and restarts it on the same flags (and, for a
// durable workload, the same data directory), timing each restart until
// the daemon lists every campaign again. On a durable workload it then
// checks that nothing acknowledged was lost: each campaign holds exactly
// its acknowledged submissions, and each settled report is byte for byte
// the one served before the kill.
func (r *run) recover(ctx context.Context) error {
	for i := 0; i < restarts; i++ {
		if err := r.stopForRelaunch(); err != nil {
			return err
		}
		start := time.Now()
		if err := r.d.start(); err != nil {
			return err
		}
		if err := r.d.awaitServing(ctx, r.cl); err != nil {
			return err
		}
		infos, err := r.listAll(ctx)
		if err != nil {
			return err
		}
		r.recoverS = append(r.recoverS, time.Since(start).Seconds())
		if !r.w.durable() {
			continue
		}
		byID := make(map[string]wire.CampaignInfo, len(infos))
		for _, info := range infos {
			byID[info.ID] = info
		}
		for _, e := range r.hosted() {
			info, ok := byID[e.id]
			r.check("crash.submissions", ok && info.Submissions == e.acked,
				"after restart %d, campaign %s holds %d submissions; %d were acknowledged", i+1, e.id, info.Submissions, e.acked)
			r.check("crash.state", ok && (info.State == "settled") == e.settled,
				"after restart %d, campaign %s is %q", i+1, e.id, info.State)
			if i > 0 || !e.settled {
				continue
			}
			rep, err := r.cl.CampaignReport(ctx, e.id)
			if err != nil {
				return fmt.Errorf("fetching recovered report: %w", err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return fmt.Errorf("encoding report: %w", err)
			}
			r.check("crash.reports", bytes.Equal(b, e.report),
				"campaign %s serves a different report after the restart", e.id)
		}
	}
	return nil
}

// stopForRelaunch kills platformd before a timed relaunch and gives the
// kernel a moment to reclaim the dead process's memory, so that the
// teardown is not timed as part of the next start.
func (r *run) stopForRelaunch() error {
	if err := r.d.kill(); err != nil {
		return err
	}
	r.t.CloseIdleConnections()
	time.Sleep(100 * time.Millisecond)
	return nil
}

// listAll fetches the whole campaign listing.
func (r *run) listAll(ctx context.Context) ([]wire.CampaignInfo, error) {
	var all []wire.CampaignInfo
	for {
		page, err := r.cl.Campaigns(ctx, len(all), 500)
		if err != nil {
			return nil, fmt.Errorf("listing campaigns: %w", err)
		}
		all = append(all, page.Campaigns...)
		if len(page.Campaigns) == 0 || len(all) >= page.Total {
			return all, nil
		}
	}
}

// check records one correctness check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	r.checks[name]++
	if !ok && len(r.problems) < 20 {
		r.problems = append(r.problems, name+": "+fmt.Sprintf(format, args...))
	}
}

// outcome computes the run's metrics.
func (r *run) outcome() *outcome {
	t := r.tally
	out := &outcome{
		attempted: t.attempted,
		failed:    t.failed,
		metrics:   make(map[string]float64),
		checks:    r.checks,
		problems:  append([]string(nil), r.problems...),
		failures:  t.problems,
	}
	settlesPerS := median(t.rates)
	if r.w.burst == 0 {
		settlesPerS = float64(t.settles) / t.last.Sub(t.first).Seconds()
	}
	var precision, cost []float64
	for _, e := range r.plan.list {
		if !e.settled {
			continue
		}
		var rep wire.Report
		if err := json.Unmarshal(e.report, &rep); err != nil {
			out.problems = append(out.problems, "decoding a served report: "+err.Error())
			continue
		}
		precision = append(precision, accuracy(rep.Truth, e.in.ground))
		cost = append(cost, rep.SocialCost)
	}
	e2e := map[string]float64{
		"setup_s":        median(r.setupS),
		"close_p50_ms":   median(t.closeMS),
		"close_tail_ms":  tail(t.closeMS, r.w.closeTail),
		"settles_per_s":  settlesPerS,
		"submit_p50_ms":  median(t.submitMS),
		"submit_tail_ms": tail(t.submitMS, r.w.submitTail),
		"recover_s":      slices.Min(r.recoverS),
		"peak_rss_mb":    r.peakRSS,
		"precision":      mean(precision),
		"social_cost":    mean(cost),
	}
	defs := endToEnd
	values := e2e
	if r.trace {
		defs = perLayer
		values = r.layers.metrics(e2e["close_p50_ms"], r.lateMS, r.w.submitTail)
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, fmt.Sprintf("metric %s has no value", d.name))
			v = 0
		}
		out.metrics[d.name] = v
	}
	for name, v := range e2e {
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, fmt.Sprintf("end-to-end metric %s has no value", name))
		}
	}
	out.correct = len(out.problems) == 0 && t.attempted > 0
	return out
}

// accuracy is the share of tasks whose settled truth is the ground truth.
func accuracy(truth, ground map[string]string) float64 {
	hit := 0
	for task, v := range ground {
		if truth[task] == v {
			hit++
		}
	}
	return float64(hit) / float64(len(ground))
}
