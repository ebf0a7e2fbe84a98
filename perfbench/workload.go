package main

import (
	"fmt"
	"math"
	"time"

	"imc2/internal/gen"
	"imc2/internal/randx"
	"imc2/internal/wire"
)

// workload is one traffic mix against platformd. platformd runs with its
// default flags (DATE with r=0.8 and α=0.05, ReverseAuction,
// -max-settles 2) plus flags.
type workload struct {
	name  string
	spec  gen.CampaignSpec
	flags []string

	// burst > 0 makes a closed loop that fills burst campaigns, closes
	// them back to back and waits for every report before the next burst.
	// burst == 0 is the open-loop ingest.
	burst int
	// closesPerSecond sizes a closed loop's campaign list from --seconds.
	closesPerSecond float64
	// rate is the open loop's envelopes per second; openCampaigns is how
	// many campaigns its envelopes are spread over at a time (see
	// staggered).
	rate          float64
	openCampaigns int
	// distinct is how many distinct campaign inputs the list cycles
	// through; 0 makes every campaign distinct.
	distinct int
	// warmup is how many campaigns each set-up settles before timing,
	// so that the daemon's caches and heap have filled.
	warmup int
	// closeTail and submitTail are the fixed percentiles that
	// close_tail_ms and submit_tail_ms report. Each is the highest
	// percentile that has at least tailBeyond samples beyond it in a run
	// of the length BENCHMARK.json sets, and its why string names it;
	// makePlan lengthens a shorter run until it has them.
	closeTail, submitTail int
}

// pollEvery is the fixed interval at which closing campaigns are polled;
// it is small against one settle.
const pollEvery = 5 * time.Millisecond

// durable reports whether platformd keeps a store: only the open-loop
// ingest gives it a fresh -data-dir with -fsync always.
func (w workload) durable() bool { return w.burst == 0 }

// paperSpec is platformd's own campaign shape, campaignSpec(120, 300, 30):
// 100 tasks per worker, over-provisioned requirements of 0.5–1 and at
// least 4 providers per task, so that every winner stays replaceable.
func paperSpec() gen.CampaignSpec {
	s := gen.DefaultSpec()
	s.Workers, s.Tasks, s.Copiers, s.TasksPerWorker = 120, 300, 30, 100
	s.RequirementLow, s.RequirementHigh = 0.5, 1
	s.MinProvidersPerTask = 4
	return s
}

// denseSpec is fig5's shape (participation decay 0.3, requirements 1–2)
// with a quarter of its workers and of its tasks per worker. It keeps a
// fifth of fig5's tasks, so that a task still has about 30 providers:
// with fewer, ReverseAuction refuses about one seed in 200 for an
// irreplaceable winner. The critical-payment search still takes three
// fifths of a settle, with about 28 winners, and a settle is short
// enough for a run to time a hundred of them.
func denseSpec() gen.CampaignSpec {
	s := gen.DefaultSpec()
	s.Workers, s.Tasks, s.Copiers, s.TasksPerWorker = 100, 400, 25, 125
	s.ParticipationDecay = 0.3
	s.RequirementLow, s.RequirementHigh = 1, 2
	return s
}

// workloads are the benchmark's traffic mixes. BENCHMARK.json lists the
// ones every change is measured on, with why each was chosen.
var workloads = map[string]workload{
	"paper-burst": {
		name: "paper-burst", spec: paperSpec(),
		burst: 8, closesPerSecond: 8, warmup: 2,
		closeTail: 93, submitTail: 93,
	},
	"dense-close": {
		name: "dense-close", spec: denseSpec(),
		burst: 1, closesPerSecond: 6, warmup: 2,
		closeTail: 91, submitTail: 91,
	},
	// ingest is about the write path and the crash check. It is not in
	// BENCHMARK.json: on a 2-vCPU VM its millisecond submits and its
	// restarts swing by a quarter or more between runs with the host's
	// load, more than any bound allowed there. One campaign in 40 runs
	// truth discovery to its iteration cap, a dozen settles' worth of CPU
	// that would decide the submit tail of whichever seed draws it
	// (paper-burst counts those in truth.capped_ratio), so the run cycles
	// 4 distinct campaigns. At 150/s the daemon stays near a third of the
	// ~435/s it sustains. A campaign fills every 120 envelopes, so the 40
	// closes its close tail needs make a run last at least half a minute.
	"ingest": {
		name: "ingest", spec: paperSpec(),
		rate: 150, openCampaigns: 4, distinct: 4, warmup: 1,
		closeTail: 75, submitTail: 99,
	},
}

// closes counts the campaigns the open loop fills, and so closes, with
// its first envelopes.
func (w workload) closes(envelopes int) int {
	n := 0
	for _, e := range staggered(envelopes, w.spec.Workers, w.openCampaigns) {
		if e.worker == w.spec.Workers-1 {
			n++
		}
	}
	return n
}

// input is one distinct campaign: the generator spec and seed that
// platformd builds its tasks from, and from which the benchmark derives
// the workers' sealed envelopes and the hidden ground truth.
type input struct {
	spec gen.CampaignSpec
	seed int64

	camp   *gen.Campaign
	subs   []wire.Submission
	ground map[string]string // task ID → true value; kept by release
}

// materialize generates the campaign once and caches it.
func (in *input) materialize() (*gen.Campaign, []wire.Submission, error) {
	if in.camp != nil {
		return in.camp, in.subs, nil
	}
	c, err := gen.NewCampaign(in.spec, randx.New(in.seed))
	if err != nil {
		return nil, nil, fmt.Errorf("generating campaign seed %d: %w", in.seed, err)
	}
	ds := c.Dataset
	subs := make([]wire.Submission, ds.NumWorkers())
	for i := range subs {
		answers := make(map[string]string, len(ds.WorkerTasks(i)))
		for _, j := range ds.WorkerTasks(i) {
			answers[ds.Task(j).ID] = ds.ValueString(j, ds.ValueOf(i, j))
		}
		subs[i] = wire.Submission{Worker: ds.WorkerID(i), Price: c.Costs[i], Answers: answers}
	}
	in.camp, in.subs, in.ground = c, subs, c.GroundTruth
	return c, subs, nil
}

// release drops the cached campaign; materialize regenerates it.
func (in *input) release() { in.camp, in.subs = nil, nil }

func (in *input) request(name string) wire.CreateCampaignRequest {
	spec := in.spec
	return wire.CreateCampaignRequest{Name: name, Spec: &spec, Seed: in.seed}
}

// entry is one campaign of a run's list, as platformd hosts it.
type entry struct {
	in  *input
	id  string
	idx int // position in platformd's campaign listing

	acked int // submissions platformd acknowledged

	closed  bool
	settled bool
	report  []byte // the served report, re-encoded canonically
	refusal string // error code of a refused settle
}

// plan is a run's inputs: the campaign list and the warm-up campaigns,
// all derived from the workload seed.
type plan struct {
	list   []*entry
	warmup []*input
	inputs []*input // the distinct inputs behind list
	// envelopes is the open loop's total envelope count.
	envelopes int
}

// makePlan derives a run's campaigns from the workload seed. Each
// campaign draws its own generator seed from the workload seed's stream;
// every seed drawn is kept, whatever its settle does.
func makePlan(w workload, seed int64, seconds float64) plan {
	rng := randx.New(seed).Split(w.name)
	draw := func() *input { return &input{spec: w.spec, seed: int64(rng.Intn(math.MaxInt32))} }
	var p plan
	for i := 0; i < w.warmup; i++ {
		p.warmup = append(p.warmup, draw())
	}
	// A run is at least long enough for its fixed tails to have
	// tailBeyond samples beyond them.
	var n int
	if w.burst > 0 {
		bursts := int(math.Round(seconds * w.closesPerSecond / float64(w.burst)))
		n = max(bursts, 1) * w.burst
		for !tailFits(n, w.closeTail) || !tailFits(n, w.submitTail) {
			n += w.burst
		}
	} else {
		p.envelopes = int(math.Round(seconds * w.rate))
		for !tailFits(p.envelopes, w.submitTail) || !tailFits(w.closes(p.envelopes), w.closeTail) {
			p.envelopes += w.spec.Workers
		}
		for _, e := range staggered(p.envelopes, w.spec.Workers, w.openCampaigns) {
			n = max(n, e.c+1)
		}
	}
	distinct := n
	if w.distinct > 0 && w.distinct < n {
		distinct = w.distinct
	}
	for i := 0; i < distinct; i++ {
		p.inputs = append(p.inputs, draw())
	}
	for i := 0; i < n; i++ {
		p.list = append(p.list, &entry{in: p.inputs[i%distinct]})
	}
	return p
}
