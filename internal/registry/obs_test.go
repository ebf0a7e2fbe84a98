package registry

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"imc2/internal/obs"
	"imc2/internal/platform"
)

// exposition renders o's metrics as Prometheus text.
func exposition(t *testing.T, o *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMetricsCountSettlesExactlyOnce races several callers into each
// campaign's settle and requires the counters to reflect the number of
// settles executed, not the number of callers: the observation rides
// RecordSettled, which the lifecycle invokes once per executed settle
// regardless of how many waiters share the cached report.
func TestMetricsCountSettlesExactlyOnce(t *testing.T) {
	o := obs.NewRegistry()
	r := New(WithObservability(o))

	const campaigns = 3
	const racers = 4
	totalSubs := 0
	wantIterations := uint64(0)
	for k := 0; k < campaigns; k++ {
		w := testWorkload(t, int64(300+k))
		c, err := r.Create(fmt.Sprintf("m%d", k), w.Dataset.Tasks(), platform.DefaultConfig(), false)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < w.Dataset.NumWorkers(); i++ {
			if err := c.Submit(submissionFor(w, i)); err != nil {
				t.Fatal(err)
			}
			totalSubs++
		}
		var wg sync.WaitGroup
		reports := make([]*platform.Report, racers)
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rep, err := c.Settle(context.Background())
				if err != nil {
					t.Errorf("campaign %d racer %d: %v", k, g, err)
					return
				}
				reports[g] = rep
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		wantIterations += uint64(reports[0].TruthIterations)

		// Instrumentation must never change the outcome: the traced,
		// counted settle matches the untraced baseline bit for bit.
		want := settleBaseline(t, int64(300+k))
		if !reflect.DeepEqual(want, reports[0]) {
			t.Errorf("campaign %d: instrumented report differs from uninstrumented baseline", k)
		}
	}

	if got := r.m.created.Value(); got != campaigns {
		t.Errorf("campaigns_created_total = %d, want %d", got, campaigns)
	}
	if got := r.m.submissions.Value(); got != uint64(totalSubs) {
		t.Errorf("submissions_total = %d, want %d", got, totalSubs)
	}
	settles := r.m.convergedTrue.Value() + r.m.convergedFalse.Value()
	if settles != campaigns {
		t.Errorf("settles_total = %d, want exactly %d (racing callers must not double-count)", settles, campaigns)
	}
	if got := r.m.settleIterations.Count(); got != campaigns {
		t.Errorf("settle_iterations observations = %d, want %d", got, campaigns)
	}
	if got := uint64(r.m.settleIterations.Sum()); got != wantIterations {
		t.Errorf("settle_iterations sum = %d, want %d (the reports' TruthIterations)", got, wantIterations)
	}
	// Each settle traces at least one iteration, and every iteration
	// observes its convergence delta.
	if got := r.m.iterChanged.Count(); got < campaigns {
		t.Errorf("iteration_changed observations = %d, want >= %d", got, campaigns)
	}

	// The by-state gauges are computed at scrape time: all campaigns
	// (plus the per-campaign baselines' registries are separate) settled.
	var sb strings.Builder
	if err := o.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("imc2_registry_campaigns_count{state=%q} %d", "settled", campaigns)
	if !strings.Contains(sb.String(), wantLine) {
		t.Errorf("exposition missing %q", wantLine)
	}
}

// TestNilObservabilityIsInert wires the option with a nil metrics
// registry: the campaign must behave identically with zero instruments.
func TestNilObservabilityIsInert(t *testing.T) {
	r := New(WithObservability(nil))
	if r.m != nil {
		t.Fatal("nil obs registry produced live metrics")
	}
	w := testWorkload(t, 7)
	c, err := r.Create("plain", w.Dataset.Tasks(), platform.DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < w.Dataset.NumWorkers(); i++ {
		if err := c.Submit(submissionFor(w, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Settle(context.Background()); err != nil {
		t.Fatal(err)
	}
}
