package auction

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// GreedyAccuracy is the GA baseline of §VII-A: it repeatedly selects the
// worker with the highest marginal accuracy coverage, ignoring bids, until
// every requirement is met.
//
// The paper pays GA winners "the critical value". Because GA's selection
// rule never reads the bids, no finite bid-threshold exists; the natural
// instantiation — used here and documented in DESIGN.md — pays each winner
// the bid of the worker that replaces it when the selection is rerun
// without it (its market alternative), floored at its own bid so the
// payment stays individually rational.
func GreedyAccuracy(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.NumWorkers()
	cs := newCoverageIndex(in).newState()
	selected := make([]bool, n)
	winners, err := selectByAccuracy(cs, selected, -1, nil)
	if err != nil {
		return nil, err
	}

	payments := make([]float64, n)
	inS := make([]bool, n)
	for _, w := range winners {
		inS[w] = true
	}
	var alt []int
	for _, i := range winners {
		alt, err = selectByAccuracy(cs, selected, i, alt[:0])
		if err != nil {
			// Infeasibility without i means i is irreplaceable; any
			// other failure keeps its own classification.
			if errors.Is(err, ErrInfeasible) {
				return nil, fmt.Errorf("%w (worker %d)", ErrMonopolist, i)
			}
			return nil, fmt.Errorf("selection without worker %d: %w", i, err)
		}
		payments[i] = in.Bids[i]
		for _, k := range alt {
			if !inS[k] { // first replacement not already a winner
				if in.Bids[k] > payments[i] {
					payments[i] = in.Bids[k]
				}
				break
			}
		}
	}
	return finishOutcome(in, winners, payments, "GA"), nil
}

// selectByAccuracy runs GA's selection over W\{skip} from the full
// requirement profile, reusing cs and selected (both reset first), and
// appends the winners to winners. GA's near-tie rule compares within a
// tolerance, which is not a total order: dropping a worker that lost a
// step can change who wins it. So unlike Algorithm 2's payment reruns, a
// GA rerun does not resume from the main run's prefix; it restarts from
// the shared index.
func selectByAccuracy(cs *coverageState, selected []bool, skip int, winners []int) ([]int, error) {
	cs.reset()
	clear(selected)
	bids := cs.ix.in.Bids
	for !cs.done() {
		best, bestCov := -1, 0.0
		for k := range bids {
			if k == skip || selected[k] {
				continue
			}
			if cov := cs.coverage(k); cov > bestCov+covered ||
				(cov > covered && best >= 0 && math.Abs(cov-bestCov) <= covered && bids[k] < bids[best]) {
				best, bestCov = k, cov
			}
		}
		if best < 0 {
			return nil, ErrInfeasible
		}
		selected[best] = true
		winners = append(winners, best)
		cs.apply(best)
	}
	return winners, nil
}

// GreedyBid is the GB baseline of §VII-A: it selects workers in ascending
// bid order until the requirements are covered and pays every winner the
// lowest losing bid (the multi-unit Vickrey clearing price), floored at
// the winner's own bid.
func GreedyBid(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, in.NumWorkers())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if in.Bids[order[a]] != in.Bids[order[b]] {
			return in.Bids[order[a]] < in.Bids[order[b]]
		}
		return order[a] < order[b]
	})

	cs := newCoverageIndex(in).newState()
	var winners []int
	for _, k := range order {
		if cs.done() {
			break
		}
		if cs.coverage(k) <= covered {
			continue // contributes nothing at this point
		}
		winners = append(winners, k)
		cs.apply(k)
	}
	if !cs.done() {
		return nil, ErrInfeasible
	}

	// Vickrey-style uniform price: the first losing bid.
	clearing := math.Inf(1)
	isWinner := make(map[int]bool, len(winners))
	for _, w := range winners {
		isWinner[w] = true
	}
	for _, k := range order {
		if !isWinner[k] {
			clearing = in.Bids[k]
			break
		}
	}

	payments := make([]float64, in.NumWorkers())
	for _, w := range winners {
		p := clearing
		if math.IsInf(p, 1) || p < in.Bids[w] {
			p = in.Bids[w] // no loser to price against, or IR floor
		}
		payments[w] = p
	}
	return finishOutcome(in, winners, payments, "GB"), nil
}
