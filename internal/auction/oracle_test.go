package auction

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"imc2/internal/imcerr"
)

// This file keeps the straightforward form of the auction as a test
// oracle: a coverage state rebuilt from the instance for every selection
// run, with a map from task to position per worker, and a critical
// payment computed by a full rerun over W\{i} for every winner. The
// production code indexes the instance once and resumes each payment
// rerun from its winner's step (see ReverseAuction); the tests below
// require both to agree bit for bit.

type oracleCoverageState struct {
	in       *Instance
	residual []float64
	cov      []float64
	contrib  [][]float64
	byTask   [][]int
	pos      []map[int]int
	remain   float64
}

func newOracleCoverageState(in *Instance) *oracleCoverageState {
	n, m := in.NumWorkers(), in.NumTasks()
	s := &oracleCoverageState{
		in:       in,
		residual: make([]float64, m),
		cov:      make([]float64, n),
		contrib:  make([][]float64, n),
		byTask:   make([][]int, m),
		pos:      make([]map[int]int, n),
	}
	copy(s.residual, in.Requirements)
	for _, q := range in.Requirements {
		s.remain += q
	}
	for i, ts := range in.TaskSets {
		s.contrib[i] = make([]float64, len(ts))
		s.pos[i] = make(map[int]int, len(ts))
		for t, j := range ts {
			c := min2(s.residual[j], in.Accuracy[i][j])
			s.contrib[i][t] = c
			s.cov[i] += c
			s.byTask[j] = append(s.byTask[j], i)
			s.pos[i][j] = t
		}
	}
	return s
}

func (s *oracleCoverageState) done() bool { return s.remain <= covered }

func (s *oracleCoverageState) coverage(k int) float64 { return s.cov[k] }

func (s *oracleCoverageState) apply(i int) {
	for _, j := range s.in.TaskSets[i] {
		dec := min2(s.residual[j], s.in.Accuracy[i][j])
		if dec <= 0 {
			continue
		}
		newResidual := s.residual[j] - dec
		if newResidual < covered {
			newResidual = 0
		}
		s.remain -= s.residual[j] - newResidual
		s.residual[j] = newResidual
		for _, k := range s.byTask[j] {
			t := s.pos[k][j]
			newC := min2(newResidual, s.in.Accuracy[k][j])
			s.cov[k] += newC - s.contrib[k][t]
			s.contrib[k][t] = newC
		}
	}
	if s.remain < covered {
		s.remain = 0
	}
}

func oracleReverseAuction(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	winners, err := oracleSelectWinners(in, -1, nil)
	if err != nil {
		return nil, err
	}
	payments := make([]float64, in.NumWorkers())
	for _, i := range winners {
		p, err := oracleCriticalPayment(in, i)
		if err != nil {
			return nil, fmt.Errorf("payment for worker %d: %w", i, err)
		}
		payments[i] = p
	}
	return finishOutcome(in, winners, payments, "ReverseAuction"), nil
}

func oracleSelectWinners(in *Instance, skip int, observe func(selected int, cs *oracleCoverageState)) ([]int, error) {
	cs := newOracleCoverageState(in)
	selected := make([]bool, in.NumWorkers())
	var winners []int
	for !cs.done() {
		best, bestRatio := -1, math.Inf(1)
		for k := 0; k < in.NumWorkers(); k++ {
			if k == skip || selected[k] {
				continue
			}
			cov := cs.coverage(k)
			if cov <= covered {
				continue
			}
			ratio := in.Bids[k] / cov
			if ratio < bestRatio {
				best, bestRatio = k, ratio
			}
		}
		if best < 0 {
			return nil, ErrInfeasible
		}
		if observe != nil {
			observe(best, cs)
		}
		selected[best] = true
		winners = append(winners, best)
		cs.apply(best)
	}
	return winners, nil
}

func oracleCriticalPayment(in *Instance, i int) (float64, error) {
	payment := 0.0
	_, err := oracleSelectWinners(in, i, func(k int, cs *oracleCoverageState) {
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
		if errors.Is(err, ErrInfeasible) {
			return 0, fmt.Errorf("%w (worker %d)", ErrMonopolist, i)
		}
		return 0, fmt.Errorf("selection without worker %d: %w", i, err)
	}
	return payment, nil
}

func oracleGreedyAccuracy(in *Instance) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	winners, err := oracleSelectByAccuracy(in, -1)
	if err != nil {
		return nil, err
	}
	payments := make([]float64, in.NumWorkers())
	inS := make(map[int]bool, len(winners))
	for _, w := range winners {
		inS[w] = true
	}
	for _, i := range winners {
		alt, err := oracleSelectByAccuracy(in, i)
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				return nil, fmt.Errorf("%w (worker %d)", ErrMonopolist, i)
			}
			return nil, fmt.Errorf("selection without worker %d: %w", i, err)
		}
		payments[i] = in.Bids[i]
		for _, k := range alt {
			if !inS[k] {
				if in.Bids[k] > payments[i] {
					payments[i] = in.Bids[k]
				}
				break
			}
		}
	}
	return finishOutcome(in, winners, payments, "GA"), nil
}

func oracleSelectByAccuracy(in *Instance, skip int) ([]int, error) {
	cs := newOracleCoverageState(in)
	selected := make([]bool, in.NumWorkers())
	var winners []int
	for !cs.done() {
		best, bestCov := -1, 0.0
		for k := 0; k < in.NumWorkers(); k++ {
			if k == skip || selected[k] {
				continue
			}
			if cov := cs.coverage(k); cov > bestCov+covered ||
				(cov > covered && best >= 0 && math.Abs(cov-bestCov) <= covered && in.Bids[k] < in.Bids[best]) {
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

// oracleInstance draws a random instance. Task sets are listed in random
// order, some tasks may have no provider, and requirements may exceed
// what the providers can cover, so the draws include infeasible
// instances and irreplaceable winners as well as settled ones. A
// tie-heavy draw uses integer bids (zero included) and accuracies from
// {0.25, 0.5, 0.75, 1}, so that many workers share a unit cost and the
// selection's tie-break decides.
func oracleInstance(rng *rand.Rand, n, m int, tieHeavy bool) *Instance {
	in := &Instance{
		Bids:         make([]float64, n),
		TaskSets:     make([][]int, n),
		Accuracy:     make([][]float64, n),
		Requirements: make([]float64, m),
	}
	density := 0.3 + 0.6*rng.Float64()
	total := make([]float64, m)
	for i := 0; i < n; i++ {
		if tieHeavy {
			in.Bids[i] = float64(rng.Intn(5))
		} else {
			in.Bids[i] = 0.5 + 9.5*rng.Float64()
		}
		in.Accuracy[i] = make([]float64, m)
		for _, j := range rng.Perm(m) {
			if rng.Float64() >= density {
				continue
			}
			a := 0.05 + 0.95*rng.Float64()
			if tieHeavy {
				a = 0.25 * float64(1+rng.Intn(4))
			}
			in.TaskSets[i] = append(in.TaskSets[i], j)
			in.Accuracy[i][j] = a
			total[j] += a
		}
	}
	for j := range in.Requirements {
		f := 0.7 * rng.Float64()
		if rng.Intn(4*m) == 0 { // about one instance in five
			f = 0.8 + 0.5*rng.Float64() // often more than the providers hold
		}
		q := f * total[j]
		if tieHeavy {
			q = 0.25 * math.Ceil(4*q)
		}
		in.Requirements[j] = q
	}
	return in
}

// sameOutcome fails unless got matches the oracle's want exactly: equal
// winner order, bit-identical payments and aggregates, or errors of the
// same sentinel, imcerr code and message.
func sameOutcome(t *testing.T, label string, got *Outcome, gotErr error, want *Outcome, wantErr error) {
	t.Helper()
	if wantErr != nil || gotErr != nil {
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: err = %v, oracle err = %v", label, gotErr, wantErr)
		}
		for _, sentinel := range []error{ErrInfeasible, ErrMonopolist} {
			if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
				t.Fatalf("%s: err = %v, oracle err = %v (errors.Is %v differs)", label, gotErr, wantErr, sentinel)
			}
		}
		if imcerr.CodeOf(gotErr) != imcerr.CodeOf(wantErr) {
			t.Fatalf("%s: CodeOf = %v, oracle %v", label, imcerr.CodeOf(gotErr), imcerr.CodeOf(wantErr))
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: err = %q, oracle err = %q", label, gotErr, wantErr)
		}
		return
	}
	if len(got.Winners) != len(want.Winners) {
		t.Fatalf("%s: winners = %v, oracle %v", label, got.Winners, want.Winners)
	}
	for q := range want.Winners {
		if got.Winners[q] != want.Winners[q] {
			t.Fatalf("%s: winners = %v, oracle %v", label, got.Winners, want.Winners)
		}
	}
	if len(got.Payments) != len(want.Payments) {
		t.Fatalf("%s: %d payments, oracle %d", label, len(got.Payments), len(want.Payments))
	}
	for i := range want.Payments {
		if math.Float64bits(got.Payments[i]) != math.Float64bits(want.Payments[i]) {
			t.Fatalf("%s: payment[%d] = %v, oracle %v", label, i, got.Payments[i], want.Payments[i])
		}
	}
	if math.Float64bits(got.SocialCost) != math.Float64bits(want.SocialCost) ||
		math.Float64bits(got.TotalPayment) != math.Float64bits(want.TotalPayment) ||
		got.Mechanism != want.Mechanism {
		t.Fatalf("%s: aggregates %v/%v/%s, oracle %v/%v/%s", label,
			got.SocialCost, got.TotalPayment, got.Mechanism, want.SocialCost, want.TotalPayment, want.Mechanism)
	}
}

// oracleCase is one random instance of the oracle sweep.
type oracleCase struct {
	label string
	in    *Instance
}

// oracleCases draws the sweep: 600 small instances, half of them
// tie-heavy, and 40 mid-sized ones where winners' payment reruns resume
// deep into the main run.
func oracleCases() []oracleCase {
	rng := rand.New(rand.NewSource(20261017))
	var cases []oracleCase
	for trial := 0; trial < 600; trial++ {
		tie := trial%2 == 1
		in := oracleInstance(rng, 3+rng.Intn(14), 1+rng.Intn(8), tie)
		cases = append(cases, oracleCase{fmt.Sprintf("small %d (tie-heavy %v)", trial, tie), in})
	}
	for trial := 0; trial < 40; trial++ {
		tie := trial%2 == 1
		in := oracleInstance(rng, 30+rng.Intn(31), 20+rng.Intn(41), tie)
		cases = append(cases, oracleCase{fmt.Sprintf("mid %d (tie-heavy %v)", trial, tie), in})
	}
	return cases
}

func TestReverseAuctionMatchesOracle(t *testing.T) {
	var settled, infeasible, monopolist int
	for _, c := range oracleCases() {
		want, wantErr := oracleReverseAuction(c.in)
		got, gotErr := ReverseAuction(c.in)
		sameOutcome(t, c.label, got, gotErr, want, wantErr)
		switch {
		case wantErr == nil:
			settled++
		case errors.Is(wantErr, ErrMonopolist):
			monopolist++
		case errors.Is(wantErr, ErrInfeasible):
			infeasible++
		}
	}
	t.Logf("oracle sweep: %d settled, %d infeasible, %d monopolist", settled, infeasible, monopolist)
	if settled < 200 || infeasible < 30 || monopolist < 30 {
		t.Fatalf("sweep too narrow: %d settled, %d infeasible, %d monopolist", settled, infeasible, monopolist)
	}
}

func TestGreedyAccuracyMatchesOracle(t *testing.T) {
	settled := 0
	for _, c := range oracleCases() {
		want, wantErr := oracleGreedyAccuracy(c.in)
		got, gotErr := GreedyAccuracy(c.in)
		sameOutcome(t, c.label, got, gotErr, want, wantErr)
		if wantErr == nil {
			settled++
		}
	}
	if settled < 200 {
		t.Fatalf("sweep too narrow: %d settled", settled)
	}
}

// TestCoverageStateMatchesOracle applies random selection sequences to
// the indexed state and to the rebuilt one and requires every coverage,
// residual and the remaining total to agree bit for bit after each step,
// across resets. It also checks the selection phase alone, which the
// exact solver primes its search with, for every excluded worker.
func TestCoverageStateMatchesOracle(t *testing.T) {
	for _, c := range oracleCases() {
		if c.in.Validate() != nil {
			continue
		}
		ix := newCoverageIndex(c.in)
		cs := ix.newState()
		rng := rand.New(rand.NewSource(int64(len(c.label))))
		for round := 0; round < 2; round++ {
			cs.reset()
			ref := newOracleCoverageState(c.in)
			for step, i := range rng.Perm(c.in.NumWorkers()) {
				cs.apply(i)
				ref.apply(i)
				label := fmt.Sprintf("%s round %d step %d", c.label, round, step)
				if math.Float64bits(cs.remain) != math.Float64bits(ref.remain) {
					t.Fatalf("%s: remain = %v, oracle %v", label, cs.remain, ref.remain)
				}
				for k := range ref.cov {
					if math.Float64bits(cs.coverage(k)) != math.Float64bits(ref.coverage(k)) {
						t.Fatalf("%s: cov[%d] = %v, oracle %v", label, k, cs.coverage(k), ref.coverage(k))
					}
				}
				for j := range ref.residual {
					if math.Float64bits(cs.residual[j]) != math.Float64bits(ref.residual[j]) {
						t.Fatalf("%s: residual[%d] = %v, oracle %v", label, j, cs.residual[j], ref.residual[j])
					}
				}
			}
		}
		for skip := -1; skip < c.in.NumWorkers(); skip++ {
			got, gotErr := selectWinners(ix, skip)
			want, wantErr := oracleSelectWinners(c.in, skip, nil)
			if (gotErr == nil) != (wantErr == nil) || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s skip %d: selectWinners = %v, %v; oracle %v, %v", c.label, skip, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestPaymentPrefixCanDecide pins why the main run folds its steps into
// the payment prefix even though, in exact arithmetic, a winner's rerun
// never observes more before its step than at it (an earlier pick w beat
// i, so b_w·cov_i/cov_w ≤ b_i; the replacement k lost to i, so
// b_k·cov_i/cov_k ≥ b_i). In floating point the prefix can win by an ulp.
// Here w (worker 0) and i (worker 1) tie at unit cost 125 up to rounding,
// i and its replacement k (worker 2) tie exactly, and x (worker 3) is w's
// costly replacement. i's payment is the prefix observation
// 93.75·0.06/0.75 = 7.5, one ulp above what the rerun observes from i's
// own step, 7.5·0.06/0.06.
func TestPaymentPrefixCanDecide(t *testing.T) {
	in := &Instance{
		Bids:         []float64{93.75, 7.5, 7.5, 100},
		TaskSets:     [][]int{{0}, {1}, {1}, {0}},
		Accuracy:     [][]float64{{0.75, 0}, {0, 0.06}, {0, 1}, {1, 0}},
		Requirements: []float64{0.75, 0.06},
	}
	prefix := in.Bids[0] * 0.06 / 0.75
	fromStep := in.Bids[2] * 0.06 / 0.06
	if !(prefix > fromStep) {
		t.Fatalf("instance no longer separates prefix %v from step %v", prefix, fromStep)
	}
	want, wantErr := oracleReverseAuction(in)
	got, gotErr := ReverseAuction(in)
	sameOutcome(t, "prefix instance", got, gotErr, want, wantErr)
	if fmt.Sprint(got.Winners) != "[0 1]" {
		t.Fatalf("winners = %v, want [0 1]", got.Winners)
	}
	if math.Float64bits(got.Payments[1]) != math.Float64bits(prefix) {
		t.Fatalf("payment[1] = %v, want the prefix observation %v", got.Payments[1], prefix)
	}
}
