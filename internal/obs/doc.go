// Package obs is the platform's dependency-free observability core: a
// metrics registry of atomic counters, gauges, and fixed-bucket
// histograms — plain and labeled — with Prometheus text-format
// exposition. Every instrument the platform registers follows the
// imc2_<subsystem>_<name>_<unit> naming convention (enforced by the
// metrics-lint test in internal/wire), where <subsystem> is one of
// wire, sched, store, registry, or truth, and <unit> is total,
// seconds, bytes, count, ratio, or info.
//
// # Nil safety
//
// The whole API is nil-safe end to end: constructors on a nil
// *Registry return nil instruments, Vec lookups on nil Vecs return nil
// children, and every method on a nil instrument is a no-op. A library
// therefore threads a possibly-nil registry through unconditionally —
//
//	m := struct{ submits *obs.Counter }{submits: reg.Counter(...)}
//	...
//	m.submits.Inc() // no-op when reg was nil; one atomic add otherwise
//
// — and pays a single predictable nil check when observability is off.
// Instrumented hot paths stay allocation-free: Observe, Inc, Add, and
// Set never allocate. Only Vec.With allocates (on first use of a label
// combination), so hot paths resolve their children once at wiring
// time and hold them.
//
// # Exposition
//
// WritePrometheus renders the registry in Prometheus text format
// (version 0.0.4): one # HELP / # TYPE header per family, series in
// registration-then-first-use order, histograms expanded into
// cumulative _bucket series plus _sum and _count. Handler serves the
// same bytes over HTTP — platformd mounts it on the -metrics-addr
// listener as GET /metrics.
//
// # Relation to the paper
//
// The per-iteration settle telemetry this package carries (see
// truth.Trace) is the operational face of the paper's
// iterate-to-convergence truth discovery: an operator reads from it how
// many iterations each settle took and whether it converged.
package obs
