package auction

import (
	"errors"
	"fmt"
	"math"
)

// ReverseAuction runs Algorithm 2: greedy winner selection by effective
// accuracy unit cost followed by critical-value payment determination.
// The mechanism is individually rational, truthful, and 2εH_Ω-approximate
// (paper Theorem 3).
//
// Cost. The payment phase (lines 10–19) prices each winner i by rerunning
// the selection over W\{i}; none of those reruns starts from scratch.
// Suppose i was picked at step p of the main run. The rerun over W\{i}
// picks the same workers w_0..w_{p−1} at steps 0..p−1: each step takes
// the first strict minimum of b_k/cov_k over ascending k, which is a
// total order on the candidates, and dropping i, which lost every one of
// those steps, changes none of their minima. Over that prefix the rerun
// therefore sees exactly the main run's states, and its observations
// b_{w_q}·cov_i/cov_{w_q} are the main run's too. So one forward pass
// folds each step's observation into a running maximum for every
// unselected worker, and at step p copies the main state into a scratch
// state and continues the rerun from step p only. An auction costs one
// coverage index, two coverage states, and for each payment only the
// steps after its winner. oracle_test.go pins winners and payments bit
// for bit against full reruns from fresh states.
func ReverseAuction(in *Instance) (*Outcome, error) {
	return reverseAuction(in, (*coverageState).extend)
}

// resumer continues a selection run from a given state; it is the seam
// through which tests exercise the payment phase's error handling without
// constructing a failing instance.
type resumer func(cs *coverageState, selected []bool, skip int, observe func(k int)) error

func reverseAuction(in *Instance, resume resumer) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.NumWorkers()
	ix := newCoverageIndex(in)
	main, scratch := ix.newState(), ix.newState()
	selected, scratchSelected := make([]bool, n), make([]bool, n)
	// prefix[k] is the maximum of b_w·cov_k/cov_w over the main run's
	// picks w so far: what a rerun without k observes before k's step.
	// In exact arithmetic it never exceeds what the rerun observes at
	// k's step, but rounding can put it an ulp above, so it is kept
	// (TestPaymentPrefixCanDecide).
	prefix := make([]float64, n)
	payments := make([]float64, n)
	var winners []int
	var payErr error

	err := main.extend(selected, -1, func(w int) {
		winners = append(winners, w)
		if payErr == nil {
			scratch.copyFrom(main)
			copy(scratchSelected, selected)
			p, err := criticalPayment(in, scratch, scratchSelected, w, prefix[w], resume)
			if err != nil {
				payErr = fmt.Errorf("payment for worker %d: %w", w, err)
			}
			payments[w] = p
		}
		covW := main.coverage(w)
		for k := range prefix {
			if k == w || selected[k] {
				continue
			}
			if covK := main.coverage(k); covK > covered {
				if p := in.Bids[w] * covK / covW; p > prefix[k] {
					prefix[k] = p
				}
			}
		}
	})
	// Selection precedes payment: an infeasible instance reports that,
	// not the payment failure an earlier winner's rerun ran into.
	if err != nil {
		return nil, err
	}
	if payErr != nil {
		return nil, payErr
	}
	return finishOutcome(in, winners, payments, "ReverseAuction"), nil
}

// extend runs the winner-selection phase (lines 2–9) onward from s over
// the workers neither selected nor skip, until every requirement is met.
// Each step picks the first worker with the lowest effective accuracy
// unit cost b_k/cov_k (line 3), calls observe with it while s is still
// the pre-selection state, then marks it selected and applies it.
func (s *coverageState) extend(selected []bool, skip int, observe func(k int)) error {
	bids := s.ix.in.Bids
	for !s.done() {
		best, bestRatio := -1, math.Inf(1)
		for k, b := range bids {
			if k == skip || selected[k] {
				continue
			}
			cov := s.cov[k]
			if cov <= covered {
				continue
			}
			if ratio := b / cov; ratio < bestRatio {
				best, bestRatio = k, ratio
			}
		}
		if best < 0 {
			return ErrInfeasible
		}
		observe(best)
		selected[best] = true
		s.apply(best)
	}
	return nil
}

// selectWinners runs the selection phase alone over W\{skip} (skip = -1
// for the full set) and returns the winners in selection order.
func selectWinners(ix *coverageIndex, skip int) ([]int, error) {
	var winners []int
	err := ix.newState().extend(make([]bool, ix.in.NumWorkers()), skip, func(k int) {
		winners = append(winners, k)
	})
	if err != nil {
		return nil, err
	}
	return winners, nil
}

// criticalPayment computes worker i's payment (Algorithm 2 lines 10–19):
// the maximum price at which i would still have been chosen in place of
// some worker i_k selected by the rerun over W\{i}:
//
//	p_i = max_k  b_{i_k} · cov_i(Θ'') / cov_{i_k}(Θ'')
//
// where Θ” is the residual profile at i_k's selection. Bidding above p_i
// would place i behind the workers that already complete the coverage, so
// p_i is i's critical value (Lemma 3). cs and selected are the rerun's
// state at i's step of the main run, and prefix is the maximum over the
// steps before it; resume runs the rest of the rerun.
func criticalPayment(in *Instance, cs *coverageState, selected []bool, i int, prefix float64, resume resumer) (float64, error) {
	payment := prefix
	err := resume(cs, selected, i, func(k int) {
		covI := cs.coverage(i)
		covK := cs.coverage(k)
		if covI <= covered || covK <= covered {
			return
		}
		if p := in.Bids[k] * covI / covK; p > payment {
			payment = p
		}
	})
	if err != nil {
		// Only an infeasible rerun diagnoses a monopolist: the full set
		// covered every task, so W\{i} failing to means i is
		// irreplaceable. Any other failure keeps its own classification
		// (and imcerr code) on the wire.
		if errors.Is(err, ErrInfeasible) {
			return 0, fmt.Errorf("%w (worker %d)", ErrMonopolist, i)
		}
		return 0, fmt.Errorf("selection without worker %d: %w", i, err)
	}
	return payment, nil
}
