package registry

import (
	"context"
	"sync"
	"time"

	"imc2/internal/imcerr"
	"imc2/internal/model"
	"imc2/internal/platform"
	"imc2/internal/sched"
	"imc2/internal/store"
	"imc2/internal/tracing"
	"imc2/internal/truth"
)

// Campaign is one registered campaign: a platform engine plus the
// registry-level identity, settle configuration, and the outcome of the
// last failed settle (surfaced to pollers of an async close). All methods
// are safe for concurrent use.
type Campaign struct {
	id   string
	name string
	p    *platform.Platform
	cfg  platform.Config
	// sched is the registry-wide settle scheduler (nil: settle
	// unscheduled with a per-settle pool).
	sched *sched.Scheduler
	// store, when non-nil, receives this campaign's mutations as durable
	// events. storeMu orders each accepted mutation with its event
	// append, so the log records mutations in exactly the order the
	// in-memory engine accepted them — the property replay depends on.
	// Lock order: storeMu before the platform's internal lock, never the
	// reverse (the settle hooks in settleConfig take storeMu while the
	// platform holds no lock).
	store   store.Store
	storeMu sync.Mutex
	// m is the registry's shared obs instruments (nil: uninstrumented).
	// The in-memory submit path pays one nil check and one atomic add
	// for it — no allocations either way.
	m *regMetrics
	// tracer, when non-nil, gives embedder-driven settles their own root
	// span; wire-driven settles arrive with a span already on ctx and
	// reuse it. The submit path never touches it — nil or not, Submit
	// stays 0 allocs.
	tracer *tracing.Tracer
	// recoveredAt is when this campaign was rebuilt from the store; zero
	// for campaigns created in this process.
	recoveredAt time.Time

	mu        sync.Mutex
	settleErr error
}

// ID returns the registry-assigned campaign ID.
func (c *Campaign) ID() string { return c.id }

// Name returns the operator-chosen campaign name (may be empty).
func (c *Campaign) Name() string { return c.name }

// Config returns the settle configuration fixed at creation.
func (c *Campaign) Config() platform.Config { return c.cfg }

// State reports the campaign's lifecycle state.
func (c *Campaign) State() platform.State { return c.p.State() }

// Tasks returns the published task list.
func (c *Campaign) Tasks() []model.Task { return c.p.Tasks() }

// NumTasks counts the published tasks without copying them.
func (c *Campaign) NumTasks() int { return c.p.NumTasks() }

// Submissions counts accepted submissions.
func (c *Campaign) Submissions() int { return c.p.Submissions() }

// Persisted reports whether this campaign's mutations are durable.
func (c *Campaign) Persisted() bool { return c.store != nil }

// RecoveredAt reports when this campaign was rebuilt from the durable
// store; the zero time means it was created in this process.
func (c *Campaign) RecoveredAt() time.Time { return c.recoveredAt }

// Open publicizes a draft campaign.
func (c *Campaign) Open() error {
	if c.store == nil {
		return c.p.Open()
	}
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if err := c.p.Open(); err != nil {
		return err
	}
	return c.appendLocked(store.Event{Type: store.EventOpened, Campaign: c.id})
}

// Cancel abandons a draft or open campaign.
func (c *Campaign) Cancel() error {
	if c.store == nil {
		return c.p.Cancel()
	}
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	if err := c.p.Cancel(); err != nil {
		return err
	}
	return c.appendLocked(store.Event{Type: store.EventCancelled, Campaign: c.id})
}

// Submit registers one sealed submission.
func (c *Campaign) Submit(sub platform.Submission) error {
	if c.store == nil {
		if err := c.p.Submit(sub); err != nil {
			return err
		}
		c.m.noteSubmissions(1)
		return nil
	}
	_, err := c.submitDurable([]platform.Submission{sub}, false)
	return err
}

// SubmitBatch registers submissions in order until the first failure and
// reports how many were accepted alongside that failure (all accepted →
// nil error). Partial acceptance stands: accepted submissions are not
// rolled back, matching what a worker observes when submitting one by
// one.
func (c *Campaign) SubmitBatch(subs []platform.Submission) (int, error) {
	if c.store == nil {
		for i, sub := range subs {
			if err := c.p.Submit(sub); err != nil {
				c.m.noteSubmissions(i)
				return i, imcerr.Wrapf(imcerr.CodeOf(err), err, "registry: batch submission %d (worker %q)", i, sub.Worker)
			}
		}
		c.m.noteSubmissions(len(subs))
		return len(subs), nil
	}
	return c.submitDurable(subs, true)
}

// submitDurable applies submissions in order and logs the accepted
// prefix as one submissions event. storeMu is held across the whole
// apply+append so a concurrent batch cannot interleave its event
// between this batch's acceptance and its record — the log must list
// submissions in acceptance order, because that order fixes worker
// indexing and therefore the settled outcome.
func (c *Campaign) submitDurable(subs []platform.Submission, batch bool) (int, error) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	accepted := make([]store.SubmissionRecord, 0, len(subs))
	var firstErr error
	for i, sub := range subs {
		if err := c.p.Submit(sub); err != nil {
			if batch {
				err = imcerr.Wrapf(imcerr.CodeOf(err), err, "registry: batch submission %d (worker %q)", i, sub.Worker)
			}
			firstErr = err
			break
		}
		accepted = append(accepted, store.SubmissionFromPlatform(sub))
	}
	c.m.noteSubmissions(len(accepted))
	if len(accepted) > 0 {
		ev := store.Event{Type: store.EventSubmissions, Campaign: c.id, Submissions: accepted}
		if err := c.appendLocked(ev); err != nil {
			// The submissions stand in memory but are not durable; the
			// store has latched failed, so the caller sees the real
			// cause instead of a silent durability gap.
			return len(accepted), err
		}
	}
	return len(accepted), firstErr
}

// appendLocked forwards one event to the store, classifying failures as
// internal. Callers hold storeMu.
func (c *Campaign) appendLocked(ev store.Event) error {
	if err := c.store.Append(ev); err != nil {
		return imcerr.Wrapf(imcerr.CodeInternal, err, "registry: persisting %s event for %s", ev.Type, c.id)
	}
	return nil
}

// appendLockedCtx is appendLocked for callers whose context may carry a
// trace span: when the store is context-aware (store.ContextAppender),
// the append — and its fsync/snapshot — is recorded as child spans of
// the settle. Stores without the seam, and span-free contexts, behave
// exactly like appendLocked. Callers hold storeMu.
func (c *Campaign) appendLockedCtx(ctx context.Context, ev store.Event) error {
	ca, ok := c.store.(store.ContextAppender)
	if !ok {
		return c.appendLocked(ev)
	}
	if err := ca.AppendContext(ctx, ev); err != nil {
		return imcerr.Wrapf(imcerr.CodeInternal, err, "registry: persisting %s event for %s", ev.Type, c.id)
	}
	return nil
}

// Settle closes the campaign and runs both stages under the campaign's
// configuration, recording the attempt's outcome for SettleErr (starting
// it clears the previous attempt's failure). While one caller runs the
// stages, concurrent callers wait; once settled everyone shares the
// cached report. After a failed settle the campaign is Open again, so a
// waiting caller re-attempts the settle — submissions accepted since the
// failure may have repaired the instance.
func (c *Campaign) Settle(ctx context.Context) (*platform.Report, error) {
	c.ClearSettleErr()
	// A traced registry gives settles arriving without a span (embedder
	// calls, not wire requests) their own root trace; a ctx already
	// carrying a span (the wire layer's settle child) is left alone.
	var span *tracing.Span
	if c.tracer != nil && tracing.SpanFromContext(ctx) == nil {
		ctx, span = c.tracer.StartRoot(ctx, "campaign.settle", "")
		span.SetKind("settle")
		span.SetAttr("campaign", c.id)
	}
	rep, err := c.p.Settle(ctx, c.settleConfig())
	span.SetError(err)
	span.End()
	c.mu.Lock()
	c.settleErr = err
	c.mu.Unlock()
	return rep, err
}

// settleConfig is the campaign's configuration with the registry-wide
// scheduler injected: the settle must acquire an admission slot under
// the campaign's ID and run its truth-discovery passes on the shared
// pool. Without a scheduler it is the configuration as created. On a
// durable registry the settle's durability hooks are injected too: the
// close request is logged before any stage runs, and the settled report
// is logged before the campaign's in-memory state admits it settled.
// On an instrumented registry the truth trace sink is chained in (the
// campaign's own Trace, if configured, still sees every iteration) and
// per-settle totals are observed via the RecordSettled hook — which the
// platform invokes exactly once per executed settle, so racing callers
// that share a cached report never double-count.
func (c *Campaign) settleConfig() platform.Config {
	cfg := c.cfg
	if c.sched != nil {
		cfg.Admission = c.sched
		cfg.SettleKey = c.id
		cfg.TruthOptions.Executor = c.sched.Pool()
	}
	if c.store != nil {
		cfg.RecordClosing = func(ctx context.Context) error {
			c.storeMu.Lock()
			defer c.storeMu.Unlock()
			return c.appendLockedCtx(ctx, store.Event{Type: store.EventCloseRequested, Campaign: c.id})
		}
		cfg.RecordSettled = func(ctx context.Context, rep *platform.Report, audit *platform.Audit) error {
			c.storeMu.Lock()
			defer c.storeMu.Unlock()
			return c.appendLockedCtx(ctx, store.Event{
				Type:     store.EventSettled,
				Campaign: c.id,
				Settled: &store.SettledPayload{
					Report: store.ReportFromPlatform(rep),
					Audit:  store.AuditFromPlatform(audit),
				},
			})
		}
	}
	if c.m != nil {
		cfg.TruthOptions.Trace = truth.MultiTrace(cfg.TruthOptions.Trace, c.m.trace())
		inner := cfg.RecordSettled
		cfg.RecordSettled = func(ctx context.Context, rep *platform.Report, audit *platform.Audit) error {
			if inner != nil {
				if err := inner(ctx, rep, audit); err != nil {
					return err
				}
			}
			c.m.noteSettled(rep)
			return nil
		}
	}
	return cfg
}

// SettleAdmission reports the campaign's position in the registry-wide
// settle scheduler: AdmissionQueued with a 1-based queue position while
// waiting, AdmissionRunning while its stages execute, AdmissionNone
// otherwise (including registries without a scheduler).
func (c *Campaign) SettleAdmission() (sched.AdmissionState, int) {
	if c.sched == nil {
		return sched.AdmissionNone, 0
	}
	return c.sched.StateOf(c.id)
}

// ClearSettleErr forgets the last settle failure. Schedulers that begin
// a settle asynchronously call it synchronously first, so a poller never
// reads the previous attempt's error as the new attempt's outcome.
func (c *Campaign) ClearSettleErr() {
	c.mu.Lock()
	c.settleErr = nil
	c.mu.Unlock()
}

// SettleErr returns the failure of the most recent settle attempt, or nil
// if none has failed (or none has run). It is how an asynchronously
// closed campaign surfaces "the settle you scheduled went wrong".
func (c *Campaign) SettleErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.settleErr
}

// Report returns the settled report, or a conflict while the campaign has
// not settled. If the last settle attempt failed, that failure is
// returned instead so pollers see the real cause.
func (c *Campaign) Report() (*platform.Report, error) {
	if rep := c.p.SettledReport(); rep != nil {
		return rep, nil
	}
	if err := c.SettleErr(); err != nil {
		return nil, err
	}
	return nil, imcerr.New(imcerr.CodeConflict, "registry: campaign %q not settled yet", c.id)
}

// Audit returns the copier audit of a settled campaign. Not-yet-settled
// campaigns are a conflict; settled campaigns whose truth method carries
// no dependence model have no audit (not found).
func (c *Campaign) Audit() (*platform.Audit, error) {
	if c.p.SettledReport() == nil {
		if err := c.SettleErr(); err != nil {
			return nil, err
		}
		return nil, imcerr.New(imcerr.CodeConflict, "registry: campaign %q not settled yet", c.id)
	}
	audit := c.p.LastAudit()
	if audit == nil {
		return nil, imcerr.New(imcerr.CodeNotFound,
			"registry: no dependence audit available (truth method has no dependence model)")
	}
	return audit, nil
}
