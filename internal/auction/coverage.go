package auction

// Cost model. Every mechanism here runs greedy selections over the same
// instance, and Algorithm 2's payment phase runs one per winner. The
// instance is therefore indexed once per auction (coverageIndex), and a
// selection run starts from a copy of the index's start state instead of
// rebuilding it: resetting a coverageState costs three copies and no
// allocation. apply touches only the providers of the selected worker's
// tasks, each through a precomputed flat offset, so a selection step costs
// O(n) for the scan plus Σ_{j∈T_i} |providers(j)| for the update.

// slot is one (worker, task) pair of the instance: worker performs the
// task, and at is the pair's offset in the flat per-pair arrays.
type slot struct {
	worker, at int
}

// coverageIndex is the immutable, per-auction index of an Instance. The
// pairs (i, T_i[t]) are laid out flat in worker order: pair t of worker i
// lives at off[i]+t in acc and in every state's contrib. Each task's
// providers are listed as slots in ascending worker order, which is the
// order apply refreshes them in.
type coverageIndex struct {
	in        *Instance
	off       []int     // off[i] is worker i's first flat offset; len n+1
	acc       []float64 // acc[off[i]+t] = A_i^j for j = T_i[t]
	taskStart []int     // task j's providers are slots[taskStart[j]:taskStart[j+1]]
	slots     []slot

	// start is the state of a run before any selection, at the full
	// requirement profile.
	start coverageState
}

// newCoverageIndex indexes a validated instance.
func newCoverageIndex(in *Instance) *coverageIndex {
	n, m := in.NumWorkers(), in.NumTasks()
	ix := &coverageIndex{
		in:        in,
		off:       make([]int, n+1),
		taskStart: make([]int, m+1),
	}
	st := &ix.start
	st.ix = ix
	st.residual = append([]float64(nil), in.Requirements...)
	st.cov = make([]float64, n)
	for i, ts := range in.TaskSets {
		ix.off[i+1] = ix.off[i] + len(ts)
		for _, j := range ts {
			ix.taskStart[j+1]++
		}
	}
	for j := 0; j < m; j++ {
		ix.taskStart[j+1] += ix.taskStart[j]
	}
	pairs := ix.off[n]
	ix.acc = make([]float64, pairs)
	st.contrib = make([]float64, pairs)
	ix.slots = make([]slot, pairs)
	fill := append([]int(nil), ix.taskStart[:m]...)
	for _, q := range in.Requirements {
		st.remain += q
	}
	for i, ts := range in.TaskSets {
		for t, j := range ts {
			at := ix.off[i] + t
			a := in.Accuracy[i][j]
			c := min2(st.residual[j], a)
			ix.acc[at] = a
			st.contrib[at] = c
			st.cov[i] += c
			ix.slots[fill[j]] = slot{worker: i, at: at}
			fill[j]++
		}
	}
	return ix
}

// coverageState incrementally maintains, for every worker k, the marginal
// coverage cov_k = Σ_{j∈T_k} min(Θ'_j, A_k^j) as residual requirements Θ'
// shrink. Algorithm 2 evaluates cov for all workers after every selection;
// the incremental form turns each update into work proportional to the
// selected worker's task set instead of a full n·m rescan.
type coverageState struct {
	ix       *coverageIndex
	residual []float64 // Θ'_j
	cov      []float64 // cov_k
	contrib  []float64 // min(Θ'_j, A_i^j) per flat pair
	remain   float64   // Σ_j Θ'_j
}

// newState returns a state at the full requirement profile.
func (ix *coverageIndex) newState() *coverageState {
	s := &coverageState{
		ix:       ix,
		residual: make([]float64, len(ix.start.residual)),
		cov:      make([]float64, len(ix.start.cov)),
		contrib:  make([]float64, len(ix.start.contrib)),
	}
	s.reset()
	return s
}

// reset returns s to the full requirement profile.
func (s *coverageState) reset() { s.copyFrom(&s.ix.start) }

// copyFrom makes s an exact copy of o, a state over the same index.
func (s *coverageState) copyFrom(o *coverageState) {
	copy(s.residual, o.residual)
	copy(s.cov, o.cov)
	copy(s.contrib, o.contrib)
	s.remain = o.remain
}

// done reports whether every requirement is met.
func (s *coverageState) done() bool { return s.remain <= covered }

// coverage returns cov_k.
func (s *coverageState) coverage(k int) float64 { return s.cov[k] }

// apply selects worker i: residuals over T_i drop by min(Θ'_j, A_i^j) and
// all affected workers' coverages are refreshed. The float operations and
// their order (tasks in T_i order, providers in ascending worker order) are
// fixed: outcomes are compared bit for bit against the reference in
// oracle_test.go.
func (s *coverageState) apply(i int) {
	ix := s.ix
	base := ix.off[i]
	for t, j := range ix.in.TaskSets[i] {
		dec := min2(s.residual[j], ix.acc[base+t])
		if dec <= 0 {
			continue
		}
		newResidual := s.residual[j] - dec
		if newResidual < covered {
			newResidual = 0
		}
		s.remain -= s.residual[j] - newResidual
		s.residual[j] = newResidual
		for _, sl := range ix.slots[ix.taskStart[j]:ix.taskStart[j+1]] {
			newC := min2(newResidual, ix.acc[sl.at])
			s.cov[sl.worker] += newC - s.contrib[sl.at]
			s.contrib[sl.at] = newC
		}
	}
	if s.remain < covered {
		s.remain = 0
	}
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
