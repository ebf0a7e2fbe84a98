package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"imc2/internal/gen"
)

// platformdBin is platformd built from this checkout for the tests that
// drive it.
var platformdBin string

func TestMain(m *testing.M) {
	os.Exit(testMain(m))
}

func testMain(m *testing.M) int {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(dir)
	platformdBin = filepath.Join(dir, "platformd")
	build := exec.Command("go", "build", "-o", platformdBin, "imc2/cmd/platformd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building platformd:", err)
		return 2
	}
	return m.Run()
}

// tiny shrinks a workload so that a run takes seconds: small campaigns,
// few of them, and the same code paths.
func tiny(name string) workload {
	w := workloads[name]
	switch name {
	case "paper-burst":
		w.spec.Workers, w.spec.Tasks, w.spec.Copiers, w.spec.TasksPerWorker = 60, 90, 10, 30
		w.closesPerSecond = 16
	case "dense-close":
		w.spec.Workers, w.spec.Tasks, w.spec.Copiers, w.spec.TasksPerWorker = 60, 200, 15, 50
		w.closesPerSecond = 12
		w.distinct = 4
	case "ingest":
		w.spec.Workers, w.spec.Tasks, w.spec.Copiers, w.spec.TasksPerWorker = 40, 60, 5, 30
		w.rate = 1000
		w.distinct = 4
	}
	// Enough providers per task that every tiny campaign settles: at this
	// size fewer leave some winners irreplaceable.
	w.spec.MinProvidersPerTask = 8
	// Tails a run of a handful of closes can show.
	w.closeTail, w.submitTail = 25, 25
	return w
}

func runTiny(t *testing.T, w workload, traced bool, extra ...*input) *outcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	out, err := execute(ctx, options{
		platformd: platformdBin, out: t.TempDir(), w: w,
		seed: 7, seconds: 1, trace: traced, extra: extra,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// printed runs report and returns the result line it ends with.
func printed(t *testing.T, o *outcome, traced bool) result {
	t.Helper()
	var out bytes.Buffer
	if err := report(&out, io.Discard, o, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q is not the result: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range []string{"paper-burst", "dense-close", "ingest"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				w := tiny(name)
				o := runTiny(t, w, traced)
				res := printed(t, o, traced)
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d; problems %v; failures %v",
						res.Correct, res.Attempted, res.Failed, o.problems, o.failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %q", d.name, m, ok, d.unit)
					}
				}
				want := []string{"report_matches_reference"}
				if traced {
					want = []string{"replay_matches_served"}
				}
				if w.durable() {
					want = append(want, "crash.submissions", "crash.state", "crash.reports")
				}
				for _, c := range want {
					if o.checks[c] == 0 {
						t.Errorf("check %s never ran (checks: %v)", c, o.checks)
					}
				}
			})
		}
	}
}

// A campaign whose settle platformd refuses, and a close it answers with
// 503 because the admission queue is full, both count as failed
// operations; neither is dropped nor timed as a success.
func TestFailuresCountAgainstAttempted(t *testing.T) {
	w := tiny("paper-burst")
	w.flags = []string{"-max-settles", "1", "-max-queued-settles", "1"}
	// gen.DefaultSpec asks for requirements of 2–4, which ReverseAuction
	// refuses for seed 1 under platformd's settings. Closes back to back
	// behind it overflow the one-deep queue.
	refused := &input{spec: gen.DefaultSpec(), seed: 1}
	o := runTiny(t, w, false, refused)
	for _, p := range o.problems {
		// So many closes fail here that too few remain for a close tail.
		if !strings.Contains(p, "close_tail_ms has no value") {
			t.Errorf("check failed: %s", p)
		}
	}
	var infeasible, overflow int
	for _, f := range o.failures {
		switch {
		case strings.Contains(f, "irreplaceable"):
			infeasible++
		case strings.Contains(f, "refused with 503"), strings.Contains(f, "queue is full"):
			// A close can also race past platformd's 503 check and be
			// turned away by the scheduler itself.
			overflow++
		}
	}
	if infeasible != 1 || overflow == 0 {
		t.Fatalf("failures %q: want one refused settle and at least one 503", o.failures)
	}
	if o.checks["report_matches_reference"] == 0 {
		t.Error("the refusal was not checked against the in-process settle")
	}
	// The refused campaign leads a list of 1+16; each campaign is one
	// submit and one close.
	closes := 1 + 16
	if o.attempted != 2*closes {
		t.Errorf("attempted %d operations, want %d", o.attempted, 2*closes)
	}
	if o.failed != infeasible+overflow || len(o.failures) != o.failed {
		t.Errorf("failed = %d, want %d (failures %q)", o.failed, infeasible+overflow, o.failures)
	}
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, bw := range spec.Workloads {
		w, ok := workloads[bw.Name]
		if !ok {
			t.Errorf("workload %s is not in the code", bw.Name)
			continue
		}
		// Each fixed tail is the highest percentile with tailBeyond
		// samples beyond it in a run of run_seconds, and the why names it.
		p := makePlan(w, 1, spec.RunSeconds)
		closes, submits := len(p.list), len(p.list)
		if w.burst == 0 {
			closes, submits = w.closes(p.envelopes), p.envelopes
		} else if sized := int(math.Round(spec.RunSeconds*w.closesPerSecond/float64(w.burst))) * w.burst; closes != sized {
			t.Errorf("%s: its tails need %d closes, more than the %d a run of run_seconds makes", w.name, closes, sized)
		}
		for _, c := range []struct {
			what   string
			n, pct int
		}{{"close", closes, w.closeTail}, {"submit", submits, w.submitTail}} {
			if !tailFits(c.n, c.pct) || tailFits(c.n, c.pct+1) {
				t.Errorf("%s: %d %ss, but its %s tail is fixed at p%d", w.name, c.n, c.what, c.what, c.pct)
			}
		}
		if want := fmt.Sprintf("Tails: close p%d, submit p%d", w.closeTail, w.submitTail); !strings.HasSuffix(bw.Why, want) {
			t.Errorf("%s: why %q does not end %q", w.name, bw.Why, want)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, code %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)

	b, err = os.ReadFile("record.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Moves map[string]json.RawMessage `json:"per_layer_moves"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if _, ok := rec.Moves[d.name]; !ok {
			t.Errorf("record.json does not say what %s should move", d.name)
		}
	}
}
