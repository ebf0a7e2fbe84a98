package auction_test

import (
	"testing"

	"imc2/internal/auction"
	"imc2/internal/gen"
	"imc2/internal/platform"
	"imc2/internal/randx"
	"imc2/internal/truth"
)

// denseSpec is the dense-close campaign shape of the repository's
// benchmark: fig5's participation decay and requirements with 100
// workers, 400 tasks and 125 tasks per worker, about 28 winners.
func denseSpec() gen.CampaignSpec {
	s := gen.DefaultSpec()
	s.Workers, s.Tasks, s.Copiers, s.TasksPerWorker = 100, 400, 25, 125
	s.ParticipationDecay = 0.3
	s.RequirementLow, s.RequirementHigh = 1, 2
	return s
}

// denseInstance builds the SOAC instance a settle of the seeded campaign
// hands to the auction: DATE (r = 0.8, α = 0.05, platformd's defaults)
// estimates the accuracies, and platform.BuildInstance pairs them with
// the workers' costs as bids.
func denseInstance(tb testing.TB, seed int64) *auction.Instance {
	tb.Helper()
	c, err := gen.NewCampaign(denseSpec(), randx.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	opts := truth.DefaultOptions()
	opts.CopyProb, opts.PriorDependence = 0.8, 0.05
	opts.Parallelism = 1
	res, err := truth.Discover(c.Dataset, truth.MethodDATE, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return platform.BuildInstance(c.Dataset, res.Accuracy, c.Costs)
}

// BenchmarkReverseAuctionDense times Algorithm 2 alone on eight
// dense-close instances, one per iteration in turn.
func BenchmarkReverseAuctionDense(b *testing.B) {
	ins := make([]*auction.Instance, 8)
	for k := range ins {
		ins[k] = denseInstance(b, int64(821+k))
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := auction.ReverseAuction(ins[i%len(ins)]); err != nil {
			b.Fatal(err)
		}
	}
}

// maxReverseAuctionAllocs bounds one ReverseAuction on the pinned
// dense-close instance. Indexing the instance once and resuming each
// payment rerun needs a few dozen allocations; rebuilding a coverage
// state per rerun took about 90,000.
const maxReverseAuctionAllocs = 5000

// TestReverseAuctionAllocsBounded is the deterministic CI gate on the
// auction's cost: allocations per run, not wall-clock time.
func TestReverseAuctionAllocsBounded(t *testing.T) {
	in := denseInstance(t, 821)
	o, err := auction.ReverseAuction(in)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := auction.ReverseAuction(in); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReverseAuction on the pinned instance: %d winners, %.0f allocs/op", len(o.Winners), allocs)
	if allocs > maxReverseAuctionAllocs {
		t.Fatalf("ReverseAuction allocates %.0f times per run, want at most %d", allocs, maxReverseAuctionAllocs)
	}
}
