// Command perfbench is the repository's performance benchmark. It starts
// platformd with one workload's flags, drives it over loopback HTTP with
// wire.Client on at most two connections, checks every report the daemon
// serves, and prints the workload's metrics by name with their units.
// The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.81, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (see endToEnd). With
// -trace 1 the run also replays the same inputs through each layer's
// public functions in this process, with a span around every call,
// checks that the replay reproduces every served report, writes the
// spans under <out>/spans, and prints the per-layer metrics (perLayer).
//
// run.sh builds platformd and this program from the checkout first:
//
//	bash perfbench/run.sh --workload paper-burst --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runBudget bounds one run, so that a hung daemon fails the run instead
// of stalling it.
const runBudget = 170 * time.Second

func main() {
	code, err := cli(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// cli runs the command and returns its exit code: 0 when every check
// passed, 1 when the run printed a result that is not correct, 2 when it
// could not run at all.
func cli(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload: paper-burst, dense-close or ingest")
		seed      = fs.Int64("seed", 1, "workload seed; every input derives from it")
		seconds   = fs.Float64("seconds", 20, "how long the timed phase should run; sizes the campaign list")
		traceOn   = fs.Int("trace", 0, "1 prints the per-layer metrics of a traced replay; 0 the end-to-end metrics")
		platformd = fs.String("platformd", "", "platformd binary built from this checkout")
		out       = fs.String("out", ".bench_build", "directory for run files and spans")
	)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := workloads[*name]
	if !ok {
		return 2, fmt.Errorf("unknown -workload %q", *name)
	}
	if *platformd == "" || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		return 2, fmt.Errorf("need -platformd, a positive -seconds and -trace 0 or 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runBudget)
	defer cancel()
	res, err := execute(ctx, options{
		platformd: *platformd, out: *out, w: w,
		seed: *seed, seconds: *seconds, trace: *traceOn == 1,
	})
	if err != nil {
		return 2, err
	}
	if err := report(os.Stdout, os.Stderr, res, *traceOn == 1); err != nil {
		return 2, err
	}
	if !res.correct {
		return 1, fmt.Errorf("the run failed its checks")
	}
	return 0, nil
}

// result is the JSON object that ends the output, for tools to read.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics as a table, then the result as the last
// line of stdout. Failed checks and operations go to diag.
func report(stdout, diag io.Writer, o *outcome, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue)}
	var b strings.Builder
	for _, d := range defs {
		v := o.metrics[d.name]
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(&b, "%-30s %14.6g %s\n", d.name, v, d.unit)
	}
	names := make([]string, 0, len(o.checks))
	for name := range o.checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "check %-24s %d\n", name, o.checks[name])
	}
	fmt.Fprintf(&b, "operations: %d attempted, %d failed\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintln(diag, "check failed:", p)
	}
	for _, f := range o.failures {
		fmt.Fprintln(diag, "operation failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(stdout, b.String())
	return err
}
