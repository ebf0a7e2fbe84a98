package imc2

import (
	"imc2/internal/auction"
	"imc2/internal/experiment"
	"imc2/internal/gen"
	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/obs"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/registry"
	"imc2/internal/sched"
	"imc2/internal/simil"
	"imc2/internal/stats"
	"imc2/internal/store"
	"imc2/internal/strategy"
	"imc2/internal/tracing"
	"imc2/internal/truth"
)

// ---- Error taxonomy --------------------------------------------------------

// Error is the classified error every layer of the platform produces: a
// machine-readable Code plus a message and an optional wrapped cause.
type Error = imcerr.Error

// ErrorCode is a machine-readable error class, stable across API
// versions; the wire layer maps each code to an HTTP status.
type ErrorCode = imcerr.Code

// The error taxonomy.
const (
	CodeInvalid     = imcerr.CodeInvalid
	CodeNotFound    = imcerr.CodeNotFound
	CodeConflict    = imcerr.CodeConflict
	CodeInfeasible  = imcerr.CodeInfeasible
	CodeMonopolist  = imcerr.CodeMonopolist
	CodeCancelled   = imcerr.CodeCancelled
	CodeUnavailable = imcerr.CodeUnavailable
	CodeInternal    = imcerr.CodeInternal
)

// Bare-code sentinels for errors.Is tests against a whole class (the
// auction sentinels ErrInfeasible and ErrMonopolist below carry the
// matching codes, so they participate in the same taxonomy).
var (
	ErrInvalid     = imcerr.ErrInvalid
	ErrNotFound    = imcerr.ErrNotFound
	ErrConflict    = imcerr.ErrConflict
	ErrCancelled   = imcerr.ErrCancelled
	ErrUnavailable = imcerr.ErrUnavailable
)

// ErrorCodeOf extracts the outermost error code from any error chain
// (CodeInternal when unclassified).
func ErrorCodeOf(err error) ErrorCode { return imcerr.CodeOf(err) }

// ---- Data model -----------------------------------------------------------

// Task is one crowdsourcing task: an answer domain size, an accuracy
// requirement Θ, and a platform value.
type Task = model.Task

// Observation is a single (worker, task, value) submission.
type Observation = model.Observation

// Dataset is the compiled, immutable snapshot of all submissions.
type Dataset = model.Dataset

// DatasetBuilder accumulates tasks and observations into a Dataset.
type DatasetBuilder = model.Builder

// NewDatasetBuilder returns an empty dataset builder.
func NewDatasetBuilder() *DatasetBuilder { return model.NewBuilder() }

// NotAnswered marks a (worker, task) cell with no submission.
const NotAnswered = model.NotAnswered

// ---- Randomness -----------------------------------------------------------

// RNG is the deterministic random source used by generators.
type RNG = randx.RNG

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed int64) *RNG { return randx.New(seed) }

// ---- Truth discovery (stage 1) ---------------------------------------------

// TruthMethod selects a truth-discovery algorithm.
type TruthMethod = truth.Method

// Truth-discovery algorithms: DATE is the paper's contribution; MV, NC,
// and ED are the evaluation baselines of §VII.
const (
	MethodDATE = truth.MethodDATE
	MethodMV   = truth.MethodMV
	MethodNC   = truth.MethodNC
	MethodED   = truth.MethodED
)

// TruthOptions configures a truth-discovery run (r, ε, α, φ, and the §IV
// extensions).
type TruthOptions = truth.Options

// DefaultTruthOptions returns the paper's defaults (r=0.4, ε=0.5, α=0.2,
// φ=100).
func DefaultTruthOptions() TruthOptions { return truth.DefaultOptions() }

// TruthResult carries the estimated truth, the accuracy matrix, the
// independence probabilities, and the pairwise dependence posterior. Its
// analysis helpers (RankDependentPairs, CopierScores, MeanIndependence,
// Confidence) turn the posterior into audit-ready signals.
type TruthResult = truth.Result

// DependentPair is an undirected worker pair ranked by dependence.
type DependentPair = truth.DependentPair

// FalseValueModel describes how false values distribute in a task's
// domain (§IV-B).
type FalseValueModel = truth.FalseValueModel

// UniformFalse is the §II-B uniform false-value assumption.
type UniformFalse = truth.UniformFalse

// ZipfFalse skews false-value popularity by a Zipf law.
type ZipfFalse = truth.ZipfFalse

// DensityFalse adapts an analytic density f(h) over value probabilities.
type DensityFalse = truth.DensityFalse

// DiscoverTruth runs the selected truth-discovery method over the dataset.
func DiscoverTruth(ds *Dataset, method TruthMethod, opt TruthOptions) (*TruthResult, error) {
	return truth.Discover(ds, method, opt)
}

// MergePresentations canonicalizes a dataset before truth discovery:
// values of one task whose similarity reaches tau merge into their
// majority representative. This is the robust realization of the paper's
// §IV-A multi-presentation extension (see EXPERIMENTS.md, ablation A2).
func MergePresentations(ds *Dataset, sim SimilarityFunc, tau float64) (*Dataset, error) {
	return truth.MergePresentations(ds, sim, tau)
}

// Precision is the paper's §VII metric: the fraction of tasks whose
// estimated truth matches the ground truth.
func Precision(estimated, groundTruth map[string]string) float64 {
	return stats.Precision(estimated, groundTruth)
}

// ---- Value similarity (§IV-A) ----------------------------------------------

// SimilarityFunc scores two values in [0, 1].
type SimilarityFunc = simil.Func

// Similarity functions over character n-gram vectors, as §IV-A suggests.
var (
	CosineSimilarity      = simil.Cosine
	EuclideanSimilarity   = simil.Euclidean
	PearsonSimilarity     = simil.Pearson
	AsymmetricSimilarity  = simil.Asymmetric
	LevenshteinSimilarity = simil.Levenshtein
	JaccardSimilarity     = simil.Jaccard
)

// SimilarityByName resolves a similarity function by name (cosine,
// euclidean, pearson, asymmetric, levenshtein, jaccard).
func SimilarityByName(name string) (SimilarityFunc, error) { return simil.ByName(name) }

// ---- Reverse auction (stage 2) ---------------------------------------------

// AuctionInstance is a SOAC problem: bids, task sets, an accuracy matrix,
// and per-task accuracy requirements.
type AuctionInstance = auction.Instance

// AuctionOutcome is a mechanism's result: winners, payments, social cost.
type AuctionOutcome = auction.Outcome

// Auction error conditions.
var (
	ErrInfeasible = auction.ErrInfeasible
	ErrMonopolist = auction.ErrMonopolist
)

// RunReverseAuction runs Algorithm 2 of the paper: greedy winner
// selection by effective accuracy unit cost plus critical-value payments.
// The mechanism is individually rational, truthful, and 2εH_Ω-approximate.
func RunReverseAuction(in *AuctionInstance) (*AuctionOutcome, error) {
	return auction.ReverseAuction(in)
}

// RunGreedyAccuracy runs the GA baseline (§VII-A).
func RunGreedyAccuracy(in *AuctionInstance) (*AuctionOutcome, error) {
	return auction.GreedyAccuracy(in)
}

// RunGreedyBid runs the GB baseline (§VII-A).
func RunGreedyBid(in *AuctionInstance) (*AuctionOutcome, error) {
	return auction.GreedyBid(in)
}

// RunOptimalAuction solves the SOAC instance exactly (branch and bound,
// small instances only) with VCG payments.
func RunOptimalAuction(in *AuctionInstance) (*AuctionOutcome, error) {
	return auction.Optimal(in)
}

// OptimalSocialCost returns only the optimal social cost.
func OptimalSocialCost(in *AuctionInstance) (float64, error) {
	return auction.OptimalCost(in)
}

// ApproximationBound evaluates the 2εH_Ω guarantee of Theorem 3 for an
// instance.
func ApproximationBound(in *AuctionInstance) float64 {
	return auction.TheoreticalBound(in)
}

// UtilityPoint is one sample of a worker's utility-vs-bid curve.
type UtilityPoint = auction.UtilityPoint

// UtilityCurve sweeps one worker's bid and reports its utility at each
// point — the machinery behind the paper's Fig. 8.
func UtilityCurve(in *AuctionInstance, worker int, trueCost float64, bids []float64) ([]UtilityPoint, error) {
	return auction.UtilityCurve(in, worker, trueCost, bids)
}

// VerifyTruthfulness checks Myerson's two conditions empirically for one
// worker over the given ascending bid samples.
func VerifyTruthfulness(in *AuctionInstance, worker int, bids []float64) error {
	return auction.VerifyTruthfulness(in, worker, bids)
}

// BuildAuctionInstance assembles the SOAC instance from a dataset, an
// accuracy matrix (from truth discovery), and the submitted bids.
func BuildAuctionInstance(ds *Dataset, accuracy [][]float64, bids []float64) *AuctionInstance {
	return platform.BuildInstance(ds, accuracy, bids)
}

// ---- Platform (both stages) -------------------------------------------------

// Platform runs one campaign end to end: publicize → sealed submissions →
// truth discovery → reverse auction → payments.
type Platform = platform.Platform

// Submission is a worker's sealed envelope: bid price plus answers.
type Submission = platform.Submission

// PlatformConfig assembles both stages.
type PlatformConfig = platform.Config

// CampaignReport is the settled outcome.
type CampaignReport = platform.Report

// Mechanism selects the stage-2 auction.
type Mechanism = platform.Mechanism

// Stage-2 mechanisms.
const (
	MechanismReverseAuction = platform.MechanismReverseAuction
	MechanismGreedyAccuracy = platform.MechanismGreedyAccuracy
	MechanismGreedyBid      = platform.MechanismGreedyBid
)

// CampaignState is a campaign's lifecycle position:
// Draft → Open → Closing → Settled, or Cancelled.
type CampaignState = platform.State

// Campaign lifecycle states.
const (
	CampaignDraft     = platform.StateDraft
	CampaignOpen      = platform.StateOpen
	CampaignClosing   = platform.StateClosing
	CampaignSettled   = platform.StateSettled
	CampaignCancelled = platform.StateCancelled
)

// NewPlatform opens a campaign over the given tasks.
func NewPlatform(tasks []Task) (*Platform, error) { return platform.New(tasks) }

// NewDraftPlatform declares a campaign without publicizing it; call its
// Open method before accepting submissions.
func NewDraftPlatform(tasks []Task) (*Platform, error) { return platform.NewDraft(tasks) }

// DefaultPlatformConfig returns the paper's configuration:
// DATE + ReverseAuction.
func DefaultPlatformConfig() PlatformConfig { return platform.DefaultConfig() }

// PlatformOption customizes a platform configuration built by
// NewPlatformConfig.
type PlatformOption func(*PlatformConfig)

// WithTruthMethod selects the stage-1 truth-discovery algorithm.
func WithTruthMethod(m TruthMethod) PlatformOption {
	return func(cfg *PlatformConfig) { cfg.TruthMethod = m }
}

// WithTruthOptions replaces the stage-1 parameters wholesale.
func WithTruthOptions(opt TruthOptions) PlatformOption {
	return func(cfg *PlatformConfig) { cfg.TruthOptions = opt }
}

// WithTruthParallelism bounds the worker pool the stage-1 engine spreads
// each iteration over: 0 (the default) uses GOMAXPROCS, 1 forces a
// serial run. Results are bit-identical for every setting; the knob
// trades only settle latency. See doc.go's "Settle performance".
func WithTruthParallelism(p int) PlatformOption {
	return func(cfg *PlatformConfig) { cfg.TruthOptions.Parallelism = p }
}

// WithMechanism selects the stage-2 auction mechanism.
func WithMechanism(m Mechanism) PlatformOption {
	return func(cfg *PlatformConfig) { cfg.Mechanism = m }
}

// NewPlatformConfig builds a configuration from the paper's defaults
// plus the given options.
func NewPlatformConfig(opts ...PlatformOption) PlatformConfig {
	cfg := platform.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// ---- Campaign registry (multi-campaign service) ------------------------------

// CampaignRegistry hosts many concurrent campaigns in one process — the
// store behind the /v2 wire protocol. Campaign lookup and creation are
// sharded; each campaign settles under its own lifecycle, so one long
// settle never blocks the others.
type CampaignRegistry = registry.Registry

// HostedCampaign is one registered campaign: a platform engine plus its
// registry identity, settle configuration, and last settle failure.
type HostedCampaign = registry.Campaign

// RegistryOption configures a campaign registry built by
// NewCampaignRegistry.
type RegistryOption = registry.Option

// NewCampaignRegistry returns an empty campaign registry. A registry
// whose settle scheduler was built internally (WithMaxConcurrentSettles)
// owns that scheduler's goroutines: call the registry's Close when done
// with it to stop the shared worker pool. A scheduler attached with
// WithSettleScheduler stays the caller's to Close.
func NewCampaignRegistry(opts ...RegistryOption) *CampaignRegistry { return registry.New(opts...) }

// ---- Settle scheduling (registry-wide admission + shared pool) ---------------

// SettleScheduler bounds the aggregate settle work of a whole campaign
// registry: a FIFO admission semaphore (at most MaxConcurrentSettles
// campaigns run their stages at once; the rest queue with observable
// positions) in front of one shared truth-discovery worker pool, so N
// concurrent closes cost one pool instead of N. Reports are
// bit-identical with and without a scheduler.
type SettleScheduler = sched.Scheduler

// SettleSchedulerConfig sizes a settle scheduler: Workers is the shared
// pool size (0 = GOMAXPROCS) and MaxConcurrentSettles the admission
// bound (0 = unlimited).
type SettleSchedulerConfig = sched.Config

// SettleSchedulerStats is a point-in-time snapshot of a scheduler's
// admission counters.
type SettleSchedulerStats = sched.Stats

// NewSettleScheduler starts a settle scheduler (and its shared pool).
// Close it when the registry shuts down.
func NewSettleScheduler(cfg SettleSchedulerConfig) *SettleScheduler { return sched.New(cfg) }

// WithSettleScheduler attaches a settle scheduler to the registry: every
// campaign settle acquires an admission slot from it and runs its
// truth-discovery passes on the shared pool. The caller keeps ownership
// — one scheduler may serve several registries, so the registry's Close
// leaves it running; Close the scheduler itself when done.
func WithSettleScheduler(s *SettleScheduler) RegistryOption { return registry.WithScheduler(s) }

// WithMaxConcurrentSettles is the one-line form of WithSettleScheduler:
// it attaches a fresh scheduler with a GOMAXPROCS-sized shared pool and
// the given admission bound (0 = unlimited, but still one shared pool).
// The scheduler is built when the option is applied, so each registry
// gets its own (an unused option value costs nothing, and reusing one
// across registries never shares a pool). Its goroutines belong to the
// registry — Close the registry (or reg.Scheduler().Close()) when done
// with it.
func WithMaxConcurrentSettles(n int) RegistryOption {
	return func(r *CampaignRegistry) {
		registry.WithOwnedScheduler(sched.New(sched.Config{MaxConcurrentSettles: n}))(r)
	}
}

// ---- Durable campaign store (event-sourced WAL + snapshots) ------------------

// CampaignStore is what a durable registry needs from a persistence
// backend: ordered, durable event appends. A nil store means in-memory
// only — the zero-configuration default.
type CampaignStore = store.Store

// FileCampaignStore is the event-sourced file backend: an append-only,
// checksummed WAL of campaign events plus periodic compacted snapshots,
// with deterministic replay on open. See internal/store.
type FileCampaignStore = store.FileStore

// CampaignStoreOptions configures a file store: the data directory, the
// snapshot interval, and the fsync policy.
type CampaignStoreOptions = store.Options

// CampaignStoreStats is a point-in-time snapshot of a file store's WAL,
// snapshot, and recovery counters (served as GET /v2/store).
type CampaignStoreStats = store.Stats

// FsyncPolicy selects when the WAL is fsynced.
type FsyncPolicy = store.FsyncPolicy

// WAL fsync policies: FsyncSettle (the default) syncs on the events
// that create or discharge payment obligations, FsyncAlways on every
// append, FsyncNever never (tests and benchmarks only).
const (
	FsyncSettle = store.FsyncSettle
	FsyncAlways = store.FsyncAlways
	FsyncNever  = store.FsyncNever
)

// NewFileStore opens (or recovers) a durable campaign store in dir with
// default options: snapshot every 256 events, fsync-on-settle. Close it
// after the registry's settles drain.
func NewFileStore(dir string) (*FileCampaignStore, error) {
	return store.Open(store.Options{Dir: dir})
}

// OpenFileStore opens (or recovers) a durable campaign store with full
// control over the snapshot interval and fsync policy.
func OpenFileStore(opts CampaignStoreOptions) (*FileCampaignStore, error) {
	return store.Open(opts)
}

// WithCampaignStore attaches a durable store to the registry: every
// campaign mutation appends an event before the registry acknowledges
// it, and a settled report is durable before the campaign reads
// Settled. The caller keeps ownership — Close the store after the
// registry's settles drain. Rebuild prior state with RestoreCampaigns
// before serving traffic.
func WithCampaignStore(st CampaignStore) RegistryOption { return registry.WithStore(st) }

// WithStoreDir is the one-line durable registry: it opens (or recovers)
// a file store in dir with default options and hands it to the registry
// as an owned store, closed by the registry's Close. If the store fails
// to open, the registry is poisoned: campaign creation returns the open
// error instead of silently running without the durability the caller
// asked for. Recovered prior state is NOT restored automatically —
// call RestoreCampaigns (via the registry's Store) when the directory
// may hold state from an earlier run.
func WithStoreDir(dir string) RegistryOption {
	return func(r *CampaignRegistry) {
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			registry.WithStoreError(err)(r)
			return
		}
		registry.WithOwnedStore(st)(r)
	}
}

// RestoreCampaigns rebuilds an empty durable registry from its store's
// recovered state — original IDs, submission order, lifecycle states,
// and bit-identical settled reports — and returns the campaigns whose
// settle the previous process did not survive. Re-queue those through
// the normal settle path (the wire server's ResumeSettles does exactly
// that).
func RestoreCampaigns(reg *CampaignRegistry, st *FileCampaignStore) ([]*HostedCampaign, error) {
	return reg.Restore(st.State().Campaigns(), st.RecoveredAt())
}

// ---- Observability (metrics + settle tracing) --------------------------------

// MetricsRegistry collects the platform's instruments (counters, gauges,
// histograms) and renders them as Prometheus text. One registry serves a
// whole process; hand it to the scheduler (SettleSchedulerConfig.Obs),
// the store (CampaignStoreOptions.Obs), the campaign registry
// (WithObservability), and the wire server. A nil registry disables
// instrumentation everywhere at zero cost.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// WithObservability instruments a campaign registry: submission and
// campaign counters, campaigns-by-state gauges, and per-settle truth
// telemetry (iterations, per-pass wall time, convergence deltas) under
// imc2_registry_* and imc2_truth_*. A nil registry is a no-op.
func WithObservability(o *MetricsRegistry) RegistryOption { return registry.WithObservability(o) }

// SettleTrace observes the stage-1 engine iteration by iteration;
// attach one via TruthOptions.Trace. Tracing never changes results.
type SettleTrace = truth.Trace

// SettleIterationStats is one traced iteration: pass wall times, the
// convergence delta, and whether this iteration converged.
type SettleIterationStats = truth.IterationStats

// SettleTraceRecorder accumulates every traced iteration in order — the
// simplest SettleTrace, and the one behind the audit's convergence log.
type SettleTraceRecorder = truth.Recorder

// MultiSettleTrace fans one settle's telemetry out to several sinks,
// dropping nils; it returns nil when every sink is nil.
func MultiSettleTrace(traces ...SettleTrace) SettleTrace { return truth.MultiTrace(traces...) }

// Tracer records span trees — one per request or settle — into a
// fixed-size flight recorder. A nil tracer disables tracing everywhere
// at zero cost (no clock reads, no allocations on the hot paths), and
// tracing never changes results: settled reports are byte-identical
// traced or untraced.
type Tracer = tracing.Tracer

// TracerOptions sizes a tracer's flight recorder: the recent-trace ring
// plus the retention pools that keep error traces and the slowest
// settles after eviction.
type TracerOptions = tracing.Options

// TraceCollector is a tracer's flight recorder, queried for retained
// traces (Traces/Trace) and occupancy (Stats). The wire server's
// GET /v2/traces endpoints serve exactly this.
type TraceCollector = tracing.Collector

// TraceSummary is one retained trace's listing row; TraceSnapshot is
// its full span tree.
type (
	TraceSummary  = tracing.TraceSummary
	TraceSnapshot = tracing.TraceSnapshot
)

// NewTracer builds a tracer with a flight recorder sized by opts (zero
// values take defaults).
func NewTracer(opts TracerOptions) *Tracer { return tracing.New(opts) }

// WithTracing attaches a tracer to a campaign registry: every settle
// records a span tree — admission wait, truth-discovery iterations,
// auction, durable appends — retrievable from the tracer's Collector.
// A nil tracer is the untraced default.
func WithTracing(tr *Tracer) RegistryOption { return registry.WithTracing(tr) }

// ---- Workload generation -----------------------------------------------------

// CampaignSpec parameterizes the synthetic workload generator that stands
// in for the paper's external datasets (see DESIGN.md).
type CampaignSpec = gen.CampaignSpec

// Campaign is a generated workload with known ground truth.
type Campaign = gen.Campaign

// DefaultCampaignSpec mirrors the paper's default simulation setup:
// 120 workers, 300 tasks, 30 copiers, ≈6000 observations, Θ ~ U[2,4].
func DefaultCampaignSpec() CampaignSpec { return gen.DefaultSpec() }

// NewCampaign generates a campaign from the spec.
func NewCampaign(spec CampaignSpec, rng *RNG) (*Campaign, error) {
	return gen.NewCampaign(spec, rng)
}

// ---- Strategic behaviour -------------------------------------------------------

// BiddingStrategy maps a worker's true cost to a submitted price.
type BiddingStrategy = strategy.Strategy

// Bidding strategies for behavioural truthfulness studies.
type (
	// TruthfulBidding bids the true cost (the dominant strategy).
	TruthfulBidding = strategy.Truthful
	// MarkupBidding overbids by a relative rate.
	MarkupBidding = strategy.Markup
	// ShadeBidding underbids by a relative rate.
	ShadeBidding = strategy.Shade
	// JitterBidding bids the cost scaled by a random factor.
	JitterBidding = strategy.Jitter
)

// StrategyReport aggregates a strategy's outcomes across campaigns.
type StrategyReport = strategy.Report

// SimulateStrategy evaluates a bidding strategy as a single deviator
// against truthful populations across the given instances.
func SimulateStrategy(instances []*AuctionInstance, strat BiddingStrategy, rng *RNG) (*StrategyReport, error) {
	return strategy.Simulate(instances, strat, rng)
}

// ---- Experiments --------------------------------------------------------------

// ExperimentConfig controls figure regeneration sweeps.
type ExperimentConfig = experiment.Config

// ExperimentTable is a rendered figure.
type ExperimentTable = experiment.Table

// ExperimentIDs lists every regenerable figure/table.
func ExperimentIDs() []string { return experiment.IDs() }

// DefaultExperimentConfig returns the CLI default sweep configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiment.DefaultConfig() }

// RunExperiment regenerates one of the paper's figures (see DESIGN.md's
// experiment index for IDs).
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, error) {
	return experiment.Run(id, cfg)
}

// Table1 returns the paper's motivating example (Table 1) with its ground
// truth.
func Table1() (*Dataset, map[string]string, error) { return experiment.Table1() }

// Table1Extended returns Table 1 grown by five more researchers — enough
// shared-mistake evidence for DATE to overturn the copied majorities that
// defeat voting (see the quickstart example).
func Table1Extended() (*Dataset, map[string]string, error) { return experiment.Table1Extended() }
