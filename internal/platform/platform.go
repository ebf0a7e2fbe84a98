// Package platform implements the crowdsourcing campaign lifecycle of the
// paper's Fig. 1: the platform publicizes tasks with accuracy
// requirements, workers submit sealed bids together with their data, the
// platform runs truth discovery (estimating worker accuracies), and a
// reverse auction selects winners and computes payments.
package platform

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"imc2/internal/auction"
	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/tracing"
	"imc2/internal/truth"
)

// Mechanism selects the auction algorithm for the second stage.
type Mechanism int

const (
	// MechanismReverseAuction is Algorithm 2 (the IMC2 mechanism).
	MechanismReverseAuction Mechanism = iota + 1
	// MechanismGreedyAccuracy is the GA baseline.
	MechanismGreedyAccuracy
	// MechanismGreedyBid is the GB baseline.
	MechanismGreedyBid
)

// String names the mechanism as the paper does.
func (m Mechanism) String() string {
	switch m {
	case MechanismReverseAuction:
		return "ReverseAuction"
	case MechanismGreedyAccuracy:
		return "GA"
	case MechanismGreedyBid:
		return "GB"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Admission gates the expensive settle stages behind a shared scheduler
// (see internal/sched.Scheduler, which satisfies it). Acquire blocks —
// FIFO among waiters, bounded by ctx — until the settle identified by
// key may run, and returns the release the settle must call when its
// stages finish.
type Admission interface {
	Acquire(ctx context.Context, key string) (release func(), err error)
}

// Config assembles both stages of IMC2.
type Config struct {
	// TruthMethod selects the stage-1 algorithm (default DATE).
	TruthMethod truth.Method
	// TruthOptions parameterizes stage 1 (default truth.DefaultOptions).
	TruthOptions truth.Options
	// Mechanism selects the stage-2 auction (default ReverseAuction).
	Mechanism Mechanism

	// Admission, when non-nil, makes Settle acquire an admission slot
	// (identified by SettleKey) after the campaign enters Closing and
	// before the stages run, releasing it when they finish. This is how
	// a registry bounds how many settles execute concurrently; while
	// queued the campaign stays Closing (submissions frozen) and the
	// scheduler reports its queue position. Nil settles immediately.
	Admission Admission
	// SettleKey identifies this campaign to the Admission scheduler
	// (queue-position reporting and per-campaign fairness).
	SettleKey string

	// RecordClosing, when non-nil, is invoked by the settling caller
	// right after the campaign enters Closing and before admission —
	// the durability hook that logs a close-requested event. An error
	// fails the settle before any stage runs (the campaign reverts to
	// Open). Submissions are already frozen when it runs, so the event
	// it appends is ordered after every accepted submission. ctx is the
	// settle's context — carrying its trace span when tracing is on —
	// never a cancellation signal the hook must honor.
	RecordClosing func(ctx context.Context) error
	// RecordSettled, when non-nil, is invoked after both stages succeed
	// and before the campaign transitions to Settled. An error fails
	// the settle (the campaign reverts to Open and the report is
	// discarded) — a campaign never reads Settled in memory unless its
	// report is durable. The campaign is still Closing while it runs,
	// so no submission or lifecycle event can interleave. ctx carries
	// the settle's trace span, as for RecordClosing.
	RecordSettled func(ctx context.Context, rep *Report, audit *Audit) error
}

// DefaultConfig returns the paper's configuration: DATE + ReverseAuction.
func DefaultConfig() Config {
	return Config{
		TruthMethod:  truth.MethodDATE,
		TruthOptions: truth.DefaultOptions(),
		Mechanism:    MechanismReverseAuction,
	}
}

// Submission is one worker's sealed envelope: the bid price and the data
// for the tasks the worker performed (D_i determines T_i).
type Submission struct {
	Worker string
	// Price is the claimed cost b_i.
	Price float64
	// Answers maps task ID → value.
	Answers map[string]string
}

// ErrDuplicateSubmission reports a worker submitting twice. It carries
// imcerr.CodeConflict.
var ErrDuplicateSubmission error = imcerr.New(imcerr.CodeConflict, "platform: worker already submitted")

// Platform runs one campaign through its lifecycle (see State). Construct
// with New (or NewDraft), feed with Submit, and settle with Settle. All
// methods are safe for concurrent use; the two settle stages run without
// holding the campaign lock.
type Platform struct {
	tasks   []model.Task
	taskIDs map[string]bool

	mu       sync.Mutex
	state    State
	settling chan struct{} // non-nil while StateClosing; closed on exit
	subs     []Submission
	byID     map[string]bool
	report   *Report
	audit    *Audit
}

// New opens a campaign over the given tasks (state Open).
func New(tasks []model.Task) (*Platform, error) {
	p, err := NewDraft(tasks)
	if err != nil {
		return nil, err
	}
	p.state = StateOpen
	return p, nil
}

// NewDraft declares a campaign without publicizing it (state Draft);
// submissions are rejected until Open is called.
func NewDraft(tasks []model.Task) (*Platform, error) {
	if len(tasks) == 0 {
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: campaign needs at least one task")
	}
	p := &Platform{
		taskIDs: make(map[string]bool, len(tasks)),
		byID:    make(map[string]bool),
		state:   StateDraft,
	}
	for _, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, imcerr.Wrap(imcerr.CodeInvalid, err)
		}
		if p.taskIDs[t.ID] {
			return nil, imcerr.New(imcerr.CodeInvalid, "platform: duplicate task %q", t.ID)
		}
		p.taskIDs[t.ID] = true
		p.tasks = append(p.tasks, t)
	}
	return p, nil
}

// Tasks returns the published task list.
func (p *Platform) Tasks() []model.Task {
	return append([]model.Task(nil), p.tasks...)
}

// NumTasks counts the published tasks without copying them.
func (p *Platform) NumTasks() int { return len(p.tasks) }

// Submit registers a sealed submission. Each worker may submit once; the
// submission must bid a non-negative price and answer at least one
// published task. Submissions are only accepted while the campaign is
// Open.
func (p *Platform) Submit(sub Submission) error {
	if err := (model.Bid{Worker: sub.Worker, Price: sub.Price}).Validate(); err != nil {
		return imcerr.Wrap(imcerr.CodeInvalid, err)
	}
	if len(sub.Answers) == 0 {
		return imcerr.New(imcerr.CodeInvalid, "platform: submission from %q has no answers", sub.Worker)
	}
	for taskID, v := range sub.Answers {
		if !p.taskIDs[taskID] {
			return imcerr.New(imcerr.CodeInvalid, "platform: %q answered unpublished task %q", sub.Worker, taskID)
		}
		if v == "" {
			return imcerr.New(imcerr.CodeInvalid, "platform: %q submitted an empty value for %q", sub.Worker, taskID)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state {
	case StateOpen:
	case StateDraft:
		return imcerr.New(imcerr.CodeConflict, "platform: campaign is still a draft")
	case StateCancelled:
		return imcerr.New(imcerr.CodeConflict, "platform: campaign is cancelled")
	default: // Closing, Settled
		return imcerr.New(imcerr.CodeConflict, "platform: auction already closed")
	}
	if p.byID[sub.Worker] {
		return fmt.Errorf("%w: %q", ErrDuplicateSubmission, sub.Worker)
	}
	p.byID[sub.Worker] = true
	p.subs = append(p.subs, sub)
	return nil
}

// Submissions returns how many workers have submitted.
func (p *Platform) Submissions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)
}

// Report is the settled campaign outcome.
type Report struct {
	// Truth maps task ID → estimated value.
	Truth map[string]string
	// Winners lists winning worker IDs in selection order.
	Winners []string
	// Payments maps worker ID → payment (winners only).
	Payments map[string]float64
	// WorkerAccuracy maps worker ID → estimated mean accuracy.
	WorkerAccuracy map[string]float64
	// SocialCost is the winners' total bid (the SOAC objective).
	SocialCost float64
	// TotalPayment is the platform's outlay.
	TotalPayment float64
	// PlatformUtility is V(S) − Σp (eq. 2).
	PlatformUtility float64
	// TruthIterations is how many refinement rounds stage 1 used.
	TruthIterations int
	// Converged reports stage-1 convergence.
	Converged bool
}

// SuspectPair is a worker pair the platform flags for audit, with the
// posterior copying probabilities in both directions.
type SuspectPair struct {
	WorkerA, WorkerB string
	AtoB, BtoA       float64
}

// Audit lists the TopK most dependence-suspicious worker pairs (and each
// worker's copier score) discovered during Run. Empty until Run executes
// with a dependence-aware method.
type Audit struct {
	Pairs        []SuspectPair
	CopierScores map[string]float64
	// Convergence is the settle's per-iteration telemetry — pass wall
	// times and how many task truths moved each round (truth.Trace).
	// Wall-clock times vary run to run; equality checks on settle output
	// should compare Reports, which stay bit-identical.
	Convergence []truth.IterationStats
}

// Run executes both stages and settles the campaign. It is the
// synchronous convenience form of Settle with a background context; once
// settled, subsequent calls return the cached report. Callers that need
// cancellation or deadlines use Settle directly.
func (p *Platform) Run(cfg Config) (*Report, error) {
	return p.Settle(context.Background(), cfg) //lint:allow ctxscope documented uncancellable convenience wrapper over Settle
}

// runStages executes truth discovery and the auction. It must only be
// called by Settle while the campaign is Closing (submissions frozen),
// and deliberately holds no lock: ctx is checked at stage boundaries so
// an abandoned settle stops between the expensive phases.
func (p *Platform) runStages(ctx context.Context, cfg Config) (*Report, *Audit, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, nil, err
	}
	ds, bids, err := p.assemble()
	if err != nil {
		return nil, nil, err
	}
	span := tracing.SpanFromContext(ctx)
	rec := &truth.Recorder{}
	topt := cfg.TruthOptions
	// Stage 1 under its own child span: the engine's per-iteration
	// telemetry is fanned into span events via SpanTrace, so the
	// convergence history lives inside the settle's trace. Nil span →
	// nil SpanTrace, dropped by MultiTrace.
	tspan := span.Child("truth.discover")
	tspan.SetAttr("method", cfg.TruthMethod.String())
	topt.Trace = truth.MultiTrace(rec, topt.Trace, truth.SpanTrace(tspan))
	res, err := truth.Discover(ds, cfg.TruthMethod, topt)
	if err != nil {
		err = imcerr.Wrapf(imcerr.CodeInvalid, err, "platform: truth discovery")
		tspan.SetError(err)
		tspan.End()
		return nil, nil, err
	}
	tspan.SetAttr("iterations", strconv.Itoa(res.Iterations))
	tspan.SetAttr("converged", strconv.FormatBool(res.Converged))
	tspan.End()
	if err := checkCtx(ctx); err != nil {
		return nil, nil, err
	}
	audit := buildAudit(ds, res, 20)
	if audit != nil {
		audit.Convergence = rec.Iterations
	}
	in := BuildInstance(ds, res.Accuracy, bids)
	aspan := span.Child("auction")
	aspan.SetAttr("mechanism", cfg.Mechanism.String())
	out, err := runAuction(in, cfg.Mechanism)
	if err != nil {
		aspan.SetError(err)
		aspan.End()
		return nil, nil, err
	}
	aspan.SetAttr("winners", strconv.Itoa(len(out.Winners)))
	aspan.End()
	if err := checkCtx(ctx); err != nil {
		return nil, nil, err
	}

	values := make([]float64, ds.NumTasks())
	for j := 0; j < ds.NumTasks(); j++ {
		values[j] = ds.Task(j).Value
	}
	report := &Report{
		Truth:           res.TruthMap(ds),
		Payments:        make(map[string]float64, len(out.Winners)),
		WorkerAccuracy:  make(map[string]float64, ds.NumWorkers()),
		SocialCost:      out.SocialCost,
		TotalPayment:    out.TotalPayment,
		PlatformUtility: auction.PlatformUtility(in, values, out),
		TruthIterations: res.Iterations,
		Converged:       res.Converged,
	}
	for _, i := range out.Winners {
		id := ds.WorkerID(i)
		report.Winners = append(report.Winners, id)
		report.Payments[id] = out.Payments[i]
	}
	for i, a := range res.WorkerAccuracy(ds) {
		report.WorkerAccuracy[ds.WorkerID(i)] = a
	}
	return report, audit, nil
}

// runAuction dispatches stage 2 to the configured mechanism.
func runAuction(in *auction.Instance, mech Mechanism) (*auction.Outcome, error) {
	var out *auction.Outcome
	var err error
	switch mech {
	case MechanismReverseAuction:
		out, err = auction.ReverseAuction(in)
	case MechanismGreedyAccuracy:
		out, err = auction.GreedyAccuracy(in)
	case MechanismGreedyBid:
		out, err = auction.GreedyBid(in)
	default:
		return nil, imcerr.New(imcerr.CodeInvalid, "platform: unknown mechanism %v", mech)
	}
	if err != nil {
		return nil, fmt.Errorf("platform: %v: %w", mech, err)
	}
	return out, nil
}

// assemble compiles the submissions into the dataset plus a bid vector
// aligned with the dataset's worker indexing. The assembly is
// deterministic — submissions in acceptance order, task IDs sorted
// within each submission — so equal submission lists always yield
// bit-identical datasets and worker indexings.
func (p *Platform) assemble() (*model.Dataset, []float64, error) {
	if len(p.subs) == 0 {
		return nil, nil, imcerr.New(imcerr.CodeInfeasible, "platform: no submissions")
	}
	b := model.NewBuilder()
	for _, t := range p.tasks {
		b.AddTask(t)
	}
	for _, sub := range p.subs {
		// Deterministic task order within a submission.
		ids := make([]string, 0, len(sub.Answers))
		for taskID := range sub.Answers {
			ids = append(ids, taskID)
		}
		sort.Strings(ids)
		for _, taskID := range ids {
			b.AddObservation(sub.Worker, taskID, sub.Answers[taskID])
		}
	}
	ds, err := b.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("platform: assembling dataset: %w", err)
	}
	bids := make([]float64, ds.NumWorkers())
	for _, sub := range p.subs {
		i, ok := ds.WorkerIndex(sub.Worker)
		if !ok {
			return nil, nil, fmt.Errorf("platform: worker %q lost during assembly", sub.Worker)
		}
		bids[i] = sub.Price
	}
	return ds, bids, nil
}

// LastAudit returns the dependence audit of the settled campaign, or nil
// if no dependence-aware run has settled yet.
func (p *Platform) LastAudit() *Audit {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.audit
}

// buildAudit converts a truth result's dependence posterior into the
// platform's audit report.
func buildAudit(ds *model.Dataset, res *truth.Result, topK int) *Audit {
	pairs := res.RankDependentPairs()
	if pairs == nil {
		return nil
	}
	if len(pairs) > topK {
		pairs = pairs[:topK]
	}
	a := &Audit{CopierScores: make(map[string]float64, ds.NumWorkers())}
	for _, pr := range pairs {
		a.Pairs = append(a.Pairs, SuspectPair{
			WorkerA: ds.WorkerID(pr.A),
			WorkerB: ds.WorkerID(pr.B),
			AtoB:    pr.AtoB,
			BtoA:    pr.BtoA,
		})
	}
	for i, score := range res.CopierScores() {
		a.CopierScores[ds.WorkerID(i)] = score
	}
	return a
}

// BuildInstance converts a dataset plus an accuracy matrix and bid vector
// into the SOAC instance the auction stage consumes.
func BuildInstance(ds *model.Dataset, accuracy [][]float64, bids []float64) *auction.Instance {
	n, m := ds.NumWorkers(), ds.NumTasks()
	in := &auction.Instance{
		Bids:         append([]float64(nil), bids...),
		TaskSets:     make([][]int, n),
		Accuracy:     accuracy,
		Requirements: make([]float64, m),
	}
	for i := 0; i < n; i++ {
		in.TaskSets[i] = append([]int(nil), ds.WorkerTasks(i)...)
	}
	for j := 0; j < m; j++ {
		in.Requirements[j] = ds.Task(j).Requirement
	}
	return in
}
