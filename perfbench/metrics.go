package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"imc2/internal/tracing"
)

// metricDef names one printed metric. BENCHMARK.json lists the same
// names and units, and the tests hold the two lists equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of platformd sees; a run with tracing
// off prints them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"close_p50_ms", "ms"},
	{"close_tail_ms", "ms"},
	{"settles_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_tail_ms", "ms"},
	{"recover_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"precision", "ratio"},
	{"social_cost", "cost"},
}

// perLayer are the single-layer metrics a traced run prints, named after
// the module they measure. perfbench/record.json maps each to the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"wire.rtt_ms", "ms"},
	{"wire.report_ms", "ms"},
	{"registry.submit_us", "us"},
	{"registry.restore_ms", "ms"},
	{"sched.wait_ms", "ms"},
	{"sched.peak_queued", "count"},
	{"model.build_ms", "ms"},
	{"model.alloc_mb", "MiB"},
	{"truth.discover_ms", "ms"},
	{"truth.dependence_ms", "ms"},
	{"truth.independence_ms", "ms"},
	{"truth.estimate_ms", "ms"},
	{"truth.iterations", "count"},
	{"truth.capped_ratio", "ratio"},
	{"truth.alloc_mb", "MiB"},
	{"platform.audit_ms", "ms"},
	{"platform.unaccounted_ms", "ms"},
	{"auction.reverse_ms", "ms"},
	{"auction.winners", "count"},
	{"auction.alloc_mb", "MiB"},
	{"store.append_p50_ms", "ms"},
	{"store.append_tail_ms", "ms"},
	{"store.snapshot_ms", "ms"},
	{"store.snapshots", "count"},
	{"store.disk_bytes_per_answer", "B"},
	{"store.open_ms", "ms"},
	{"loadgen.late_tail_ms", "ms"},
}

// layers records the traced run: a span around every call the benchmark
// makes into a layer, and the samples each per-layer metric is made of.
type layers struct {
	tracer  *tracing.Tracer
	samples map[string][]float64
	// counts are per-layer figures that are not samples.
	counts map[string]float64
}

func newLayers() *layers {
	return &layers{
		tracer:  tracing.New(tracing.Options{Buffer: 1 << 12, MaxSpansPerTrace: 1 << 16}),
		samples: make(map[string][]float64),
		counts:  make(map[string]float64),
	}
}

// root opens a trace for one replayed unit of work.
func (l *layers) root(ctx context.Context, name string) *tracing.Span {
	_, span := l.tracer.StartRoot(ctx, name, "")
	return span
}

// call runs fn inside a child span of parent named after the layer call
// and returns its wall time and the bytes it allocated.
func (l *layers) call(parent *tracing.Span, name string, fn func() error) (time.Duration, float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	span := parent.Child(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	span.SetError(err)
	span.End()
	runtime.ReadMemStats(&after)
	return d, float64(after.TotalAlloc - before.TotalAlloc), err
}

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// metrics reduces the samples to the per-layer metrics. closeP50 is the
// traced run's own close_p50_ms, lateMS the open loop's lateness, and
// tailP the workload's submit tail percentile, which the per-request
// tails of store appends and of the open loop share.
func (l *layers) metrics(closeP50 float64, lateMS []float64, tailP int) map[string]float64 {
	m := make(map[string]float64)
	for name, v := range l.counts {
		m[name] = v
	}
	for _, name := range []string{
		"wire.rtt_ms", "wire.report_ms", "registry.submit_us",
		"model.build_ms", "model.alloc_mb",
		"truth.discover_ms", "truth.dependence_ms", "truth.independence_ms", "truth.estimate_ms", "truth.alloc_mb",
		"platform.audit_ms", "auction.reverse_ms", "auction.alloc_mb",
	} {
		m[name] = median(l.samples[name])
	}
	m["sched.wait_ms"] = mean(l.samples["sched.wait_ms"])
	m["truth.iterations"] = mean(l.samples["truth.iterations"])
	m["truth.capped_ratio"] = mean(l.samples["truth.capped"])
	m["auction.winners"] = mean(l.samples["auction.winners"])
	m["store.append_p50_ms"] = median(l.samples["store.append_ms"])
	m["store.append_tail_ms"] = tail(l.samples["store.append_ms"], tailP)
	m["platform.unaccounted_ms"] = closeP50 - m["model.build_ms"] - m["truth.discover_ms"] -
		m["platform.audit_ms"] - m["auction.reverse_ms"]
	// A closed loop sends each request as soon as the one before it is
	// answered, so it is never late.
	m["loadgen.late_tail_ms"] = 0
	if len(lateMS) > 0 {
		m["loadgen.late_tail_ms"] = tail(lateMS, tailP)
	}
	return m
}

// writeSpans writes every recorded trace, one JSON object a line.
func (l *layers) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	enc := json.NewEncoder(f)
	col := l.tracer.Collector()
	for _, sum := range col.Traces(tracing.TraceFilter{}) {
		tr, ok := col.Trace(sum.TraceID)
		if !ok {
			continue
		}
		if err := enc.Encode(tr); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
