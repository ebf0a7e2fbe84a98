package truth

import (
	"fmt"

	"imc2/internal/model"
)

// Engine is a resumable truth-discovery run: the same dependence /
// independence / estimation passes Discover executes, but driven one
// iteration at a time. The cross-iteration state — the current truth
// vector and the per-worker accuracies that seed the next round's vote
// weights — lives inside the engine, so a run split across any number of
// Step or Run calls is bit-identical to the same run executed in one
// Discover call: pausing never re-derives the majority-vote seed and
// never perturbs the accuracy trajectory.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	s      *state
	method Method

	iterations int
	converged  bool
	prev       []int32

	// mv is the one-shot majority-vote result for MethodMV, which has no
	// iterative refinement to resume; a MV engine is born done.
	mv *Result
}

// NewEngine validates the dataset and options and returns an engine
// positioned before its first iteration, seeded — like Discover — from
// the majority vote. The dataset must not be mutated while the engine is
// live.
func NewEngine(ds *model.Dataset, method Method, opt Options) (*Engine, error) {
	fm, err := validateRun(ds, method, opt)
	if err != nil {
		return nil, err
	}
	e := &Engine{method: method}
	if method == MethodMV {
		e.mv = majorityVote(ds)
		e.iterations = e.mv.Iterations
		e.converged = true
		return e, nil
	}
	e.s = newState(ds, opt, fm)
	if method != MethodNC {
		e.s.dep = newFilledMatrix(e.s.n, e.s.n, opt.PriorDependence)
		e.s.totalDep = make([]float64, e.s.n)
	}
	e.prev = make([]int32, e.s.m)
	return e, nil
}

// validateRun is the precondition check shared by Discover and
// NewEngine: options validate, the method is known, and the false-value
// model covers every distinct domain size in the dataset.
func validateRun(ds *model.Dataset, method Method, opt Options) (FalseValueModel, error) {
	if ds == nil {
		return nil, fmt.Errorf("truth: nil dataset")
	}
	switch method {
	case MethodMV, MethodNC, MethodDATE, MethodED:
	default:
		return nil, fmt.Errorf("truth: unknown method %v", method)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	fm := opt.falseModelOrUniform()
	seen := make(map[int]bool)
	for j := 0; j < ds.NumTasks(); j++ {
		nf := ds.Task(j).NumFalse
		if !seen[nf] {
			seen[nf] = true
			if err := validateFalseModel(fm, nf); err != nil {
				return nil, err
			}
		}
	}
	return fm, nil
}

// Iterations reports how many refinement iterations have executed so
// far across all Step/Run calls.
func (e *Engine) Iterations() int { return e.iterations }

// Done reports whether the run is finished: converged, or out of
// iterations (Options.MaxIterations). Step is a no-op once Done.
func (e *Engine) Done() bool {
	return e.converged || e.iterations >= e.s.opt.MaxIterations
}

// Step executes one refinement iteration — Algorithm 1's dependence,
// independence, and estimation passes for DATE/ED, estimation only for
// NC — and reports how many task truths moved plus whether the run is
// now done. Traced and untraced steps share this single loop body and a
// single convergence predicate (changed == 0): a Trace only observes
// the iteration, it cannot alter iteration counts or convergence.
func (e *Engine) Step() (changed int, done bool) {
	if e.mv != nil || e.Done() {
		return 0, true
	}
	e.iterations++
	copy(e.prev, e.s.truth)

	needDep := e.method == MethodDATE || e.method == MethodED
	tr := e.s.opt.Trace
	var it IterationStats
	if tr == nil {
		if needDep {
			e.s.computeDependence()                       // step 1: eq. 7–15
			e.s.computeIndependence(e.method == MethodED) // step 2: eq. 16
		}
		e.s.estimate() // step 3: eq. 17–21
	} else {
		it.Iteration = e.iterations
		if needDep {
			it.DependenceSeconds = timePass(e.s.computeDependence)
			it.IndependenceSeconds = timePass(func() { e.s.computeIndependence(e.method == MethodED) })
		}
		it.EstimateSeconds = timePass(e.s.estimate)
	}
	changed = countChanged(e.prev, e.s.truth)
	e.converged = changed == 0
	if tr != nil {
		it.Changed = changed
		it.Converged = e.converged
		tr.ObserveIteration(it)
	}
	return changed, e.Done()
}

// Run executes up to budget iterations (budget <= 0: until done) and
// reports whether the run is done. Run(0) from a fresh engine is
// exactly Discover; Run(k) repeatedly until done is the same
// computation in installments.
func (e *Engine) Run(budget int) bool {
	for steps := 0; !e.Done() && (budget <= 0 || steps < budget); steps++ {
		if _, done := e.Step(); done {
			break
		}
	}
	return e.Done()
}

// Result returns the run's outcome in Discover's shape. The matrices
// and truth vector alias the engine's live buffers: callers must not
// Step the engine after using the Result, and must not mutate it.
func (e *Engine) Result() *Result {
	if e.mv != nil {
		return e.mv
	}
	return &Result{
		Truth:        e.s.truth,
		Accuracy:     e.s.acc,
		Independence: e.s.indep,
		Dependence:   e.s.dep, // nil for NC, which allocates none
		Iterations:   e.iterations,
		Converged:    e.converged,
		Method:       e.method,
	}
}
