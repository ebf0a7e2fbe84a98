package truth

import (
	"math"

	"imc2/internal/model"
	"imc2/internal/numeric"
)

// estimate is step 3 of Algorithm 1: it computes each value's posterior
// probability of being true (eq. 20, generalized by eq. 23), refreshes the
// accuracy estimates (eq. 17), and re-estimates the truth from
// independence-discounted support counts (line 28, generalized by eq. 21).
//
// Two interpretation notes, both following the algorithm's VLDB lineage
// (Dong, Berti-Equille, Srivastava 2009), which this section of the paper
// condenses:
//
//   - Eq. 17 averages the truth probability of a worker's values into a
//     single per-worker accuracy A_i ("the accuracy of a worker as the
//     average probability of its values"); that global A_i is what feeds
//     the vote weights and the dependence analysis of the next round. The
//     per-task matrix A_i^j = P_j(v_i^j) is retained as the worker's
//     task-level accuracy for the auction stage.
//   - The vote weight of each provider is discounted by its independence
//     probability I (the "support counts" of line 28); without the
//     discount inside eq. 20 a copied majority could never be overturned,
//     because P_j(v) would keep amplifying the copiers regardless of I.
func (s *state) estimate() {
	// Task-parallel: each task writes only its own truth estimate and its
	// own accuracy column, reading the previous iteration's accW, so no
	// two tasks share state and no floating-point order depends on the
	// schedule. Each pool slot owns reusable posterior scratch.
	scratch := s.estScratchSlots()
	s.doSlots(s.m, func(slot, j int) {
		s.estimateTask(j, scratch[slot])
	})

	// Eq. 17 (per-worker part): fold the per-task probabilities into the
	// global accuracy used by the next iteration. Worker-parallel.
	s.do(s.n, func(i int) {
		tasks := s.ds.WorkerTasks(i)
		if len(tasks) == 0 {
			return
		}
		var sum numeric.KahanSum
		for _, j := range tasks {
			sum.Add(s.acc[i][j])
		}
		s.accW[i] = sum.Sum() / float64(len(tasks))
	})
}

// estScratch is one pool slot's reusable per-task posterior buffers,
// sized to the widest value domain.
type estScratch struct {
	logScore []float64
	adjusted []float64
	probs    []float64
	support  []float64
}

// estScratchSlots lazily allocates one scratch set per pool slot,
// reusing them across iterations.
func (s *state) estScratchSlots() []*estScratch {
	if s.estScratch == nil {
		s.estScratch = make([]*estScratch, s.par)
		for slot := range s.estScratch {
			s.estScratch[slot] = &estScratch{
				logScore: make([]float64, s.maxValues),
				adjusted: make([]float64, s.maxValues),
				probs:    make([]float64, s.maxValues),
				support:  make([]float64, s.maxValues),
			}
		}
	}
	return s.estScratch
}

// estimateTask runs eq. 20/17/21 + line 28 for one task.
func (s *state) estimateTask(j int, sc *estScratch) {
	values := s.ds.Values(j)
	if len(values) == 0 {
		s.truth[j] = model.NotAnswered
		return
	}
	providers := s.ds.TaskWorkers(j)

	// Independence-discounted log-vote per value: each provider of v
	// contributes I · (ln(A/(1−A)) − E[ln p_false]). Under the uniform
	// false model −E[ln p_false] = ln(num), recovering eq. 20's
	// num·A/(1−A) weights.
	logScore := sc.logScore[:len(values)]
	for v := range logScore {
		logScore[v] = 0
	}
	for _, i := range providers {
		a := clampAcc(s.accW[i])
		v := s.ds.ValueOf(i, j)
		w := math.Log(a) - math.Log1p(-a) - s.logMeanProb[j]
		logScore[v] += s.indep[i][j] * w
	}
	// Eq. 21 (§IV-A): values inherit ρ-weighted vote counts from
	// similar values. The adjustment applies to the vote counts that
	// feed eq. 20 — the formula's lineage (Dong et al., VLDB 2009,
	// §5.2) and the only placement where it can change the winner:
	// adjusting the post-softmax A·I support instead is inert because
	// softmax amplification has already separated the majority.
	if s.opt.Similarity != nil && s.opt.SimilarityWeight > 0 {
		logScore = s.adjustBySimilarity(values, logScore, sc.adjusted[:len(values)])
	}
	probs := numeric.NormalizeLogsInto(sc.probs[:len(values)], logScore)

	// Eq. 17 (per-task part): a worker's accuracy on the task is the
	// truth probability of the value it provided.
	for _, i := range providers {
		s.acc[i][j] = probs[s.ds.ValueOf(i, j)]
	}

	// Line 28: support counts A·I select the truth.
	support := sc.support[:len(values)]
	for v := range support {
		support[v] = 0
	}
	for _, i := range providers {
		v := s.ds.ValueOf(i, j)
		support[v] += s.acc[i][j] * s.indep[i][j]
	}
	s.truth[j] = argmaxValue(support)
}

// adjustBySimilarity applies eq. 21 to the vote counts: each value
// inherits ρ-weighted votes from similar values. dst must not alias
// votes; it is returned filled.
func (s *state) adjustBySimilarity(values []string, votes, dst []float64) []float64 {
	rho := s.opt.SimilarityWeight
	for v := range values {
		dst[v] = votes[v]
		for w := range values {
			if w == v {
				continue
			}
			sim := s.opt.Similarity(values[v], values[w])
			if sim <= 0 {
				continue
			}
			dst[v] += rho * sim * votes[w]
		}
	}
	return dst
}

// argmaxValue returns the index of the largest support, breaking ties
// toward the lowest index: only a strictly greater support displaces the
// incumbent. Value indices are first-appearance order in the dataset, so
// the winner of a tie is the value observed first — a deterministic rule
// shared by every voting site (majority seed and per-iteration
// estimate), so every run over the same dataset elects identical
// truths. Pinned by
// TestArgmaxValueLowestIndexTieBreak; do not change without versioning
// every persisted report.
func argmaxValue(support []float64) int32 {
	best := 0
	for v := 1; v < len(support); v++ {
		if support[v] > support[best] {
			best = v
		}
	}
	return int32(best)
}

// majorityTruth computes the simple-majority estimate used both by the MV
// baseline and as DATE's starting point ("the true value can be obtained
// through the voting mechanism on data set D for each task initially").
func majorityTruth(ds *model.Dataset) []int32 {
	truth := make([]int32, ds.NumTasks())
	for j := range truth {
		values := ds.Values(j)
		if len(values) == 0 {
			truth[j] = model.NotAnswered
			continue
		}
		counts := make([]float64, len(values))
		for _, i := range ds.TaskWorkers(j) {
			counts[ds.ValueOf(i, j)]++
		}
		truth[j] = argmaxValue(counts)
	}
	return truth
}

// majorityVote is the MV baseline: one voting pass. Its accuracy matrix is
// the per-task truth indicator (1 where the worker agrees with the elected
// value), which is the natural instantiation of eq. 17 under voting.
func majorityVote(ds *model.Dataset) *Result {
	n, m := ds.NumWorkers(), ds.NumTasks()
	truth := majorityTruth(ds)
	acc := newZeroMatrix(n, m)
	indep := newFilledMatrix(n, m, 1)
	for i := 0; i < n; i++ {
		for _, j := range ds.WorkerTasks(i) {
			if ds.ValueOf(i, j) == truth[j] {
				acc[i][j] = 1
			}
		}
	}
	return &Result{
		Truth:        truth,
		Accuracy:     acc,
		Independence: indep,
		Iterations:   1,
		Converged:    true,
		Method:       MethodMV,
	}
}
