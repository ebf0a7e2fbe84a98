package registry

import (
	"imc2/internal/obs"
	"imc2/internal/platform"
	"imc2/internal/truth"
)

// WithObservability registers the registry's and truth engine's metrics
// (imc2_registry_*, imc2_truth_*) on o and threads instrumentation into
// every campaign: a submissions counter on the accept path (one atomic
// add — the in-memory path stays allocation-free), campaigns-by-state
// gauges read at scrape time, and a truth.Trace sink feeding per-pass
// and per-iteration settle telemetry. A nil o is a no-op, keeping the
// option composable with "observability off" configurations.
func WithObservability(o *obs.Registry) Option {
	return func(r *Registry) { r.m = newRegMetrics(o, r) }
}

// iterationBuckets spans settle iteration counts (paper: φ=100 cap).
var iterationBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}

// changedBuckets spans per-iteration truth-estimate deltas.
var changedBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// regMetrics holds the registry's instruments. A nil *regMetrics is the
// uninstrumented registry: every method call below no-ops.
type regMetrics struct {
	created     *obs.Counter
	submissions *obs.Counter

	settles          *obs.CounterVec   // converged=true|false
	settleIterations *obs.Histogram    // iterations per settle
	passSeconds      *obs.HistogramVec // pass=dependence|independence|estimate
	iterChanged      *obs.Histogram    // truths moved per iteration

	// passDep/passInd/passEst are the resolved pass children so the
	// per-iteration trace path does not pay a Vec lookup.
	passDep, passInd, passEst     *obs.Histogram
	convergedTrue, convergedFalse *obs.Counter
}

func newRegMetrics(o *obs.Registry, r *Registry) *regMetrics {
	if o == nil {
		return nil
	}
	m := &regMetrics{
		created: o.Counter("imc2_registry_campaigns_created_total",
			"Campaigns registered (created, adopted, or restored)."),
		submissions: o.Counter("imc2_registry_submissions_total",
			"Sealed submissions accepted across all campaigns."),
		settles: o.CounterVec("imc2_truth_settles_total",
			"Completed truth-discovery settles by convergence outcome.", "converged"),
		settleIterations: o.Histogram("imc2_truth_settle_iterations_count",
			"Truth-discovery iterations per settle.", iterationBuckets),
		passSeconds: o.HistogramVec("imc2_truth_pass_seconds",
			"Wall time per truth-discovery pass per iteration.",
			obs.LatencyBuckets, "pass"),
		iterChanged: o.Histogram("imc2_truth_iteration_changed_count",
			"Task truths that moved per iteration (the convergence delta).",
			changedBuckets),
	}
	m.passDep = m.passSeconds.With("dependence")
	m.passInd = m.passSeconds.With("independence")
	m.passEst = m.passSeconds.With("estimate")
	m.convergedTrue = m.settles.With("true")
	m.convergedFalse = m.settles.With("false")

	states := o.GaugeVec("imc2_registry_campaigns_count",
		"Registered campaigns by lifecycle state, counted at scrape time.", "state")
	for _, st := range []platform.State{
		platform.StateDraft, platform.StateOpen, platform.StateClosing,
		platform.StateSettled, platform.StateCancelled,
	} {
		st := st
		states.BindFunc(func() float64 { return float64(r.countState(st)) }, st.String())
	}
	return m
}

// countState walks the creation-ordered index counting campaigns in st.
// O(registry) at scrape time, zero cost on any serving path.
func (r *Registry) countState(st platform.State) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, c := range r.ordered {
		if c.State() == st {
			n++
		}
	}
	return n
}

func (m *regMetrics) noteCreated() {
	if m != nil {
		m.created.Inc()
	}
}

func (m *regMetrics) noteSubmissions(n int) {
	if m != nil {
		m.submissions.Add(uint64(n))
	}
}

// noteSettled observes one completed settle's totals from its report.
func (m *regMetrics) noteSettled(rep *platform.Report) {
	if m == nil || rep == nil {
		return
	}
	if rep.Converged {
		m.convergedTrue.Inc()
	} else {
		m.convergedFalse.Inc()
	}
	m.settleIterations.Observe(float64(rep.TruthIterations))
}

// trace returns the truth.Trace feeding the per-iteration metrics, or
// nil on an uninstrumented registry.
func (m *regMetrics) trace() truth.Trace {
	if m == nil {
		return nil
	}
	return metricsTrace{m}
}

// metricsTrace adapts regMetrics to truth.Trace. Passes a method does
// not run (NC has no dependence or independence step) report exactly
// zero and are not observed, so pass latencies describe passes that
// executed.
type metricsTrace struct{ m *regMetrics }

func (t metricsTrace) ObserveIteration(s truth.IterationStats) {
	if s.DependenceSeconds > 0 {
		t.m.passDep.Observe(s.DependenceSeconds)
	}
	if s.IndependenceSeconds > 0 {
		t.m.passInd.Observe(s.IndependenceSeconds)
	}
	if s.EstimateSeconds > 0 {
		t.m.passEst.Observe(s.EstimateSeconds)
	}
	t.m.iterChanged.Observe(float64(s.Changed))
}
