// Package server implements lincountd's resident query server: a
// long-lived process that holds one loaded Program plus a Database and
// serves many concurrent prepared-query evaluations over HTTP/JSON.
//
// The design is MVCC with a single writer. Reads never lock anything:
// every request loads the current Snapshot (an epoch number plus an
// immutable Database) from an atomic pointer and evaluates against it.
// Writes funnel through one batching writer goroutine that forks the
// current snapshot copy-on-write (Database.Fork), applies a coalesced
// batch of asserts/retracts to the fork, and publishes the fork
// atomically as the next epoch — so a reader observes either all of a
// batch or none of it, never a half-applied state.
//
// Robustness is the point, not throughput:
//
//   - Admission control: a concurrency semaphore with a bounded wait
//     queue. When both are full the request is shed immediately with a
//     typed BusyError (HTTP 503) instead of queueing unboundedly.
//   - Per-request deadlines and fact budgets, inherited from the
//     context/ResourceLimitError machinery the evaluators already honor.
//   - Panic containment per request: the Eval boundary already recovers
//     evaluator panics into InternalError; the HTTP layer adds a second
//     recover so even a handler bug cannot take the process down.
//   - Retry with backoff on retryable write failures (injected faults,
//     per the degradation taxonomy), re-applying the batch to a fresh
//     fork each attempt — a failed attempt leaves no trace.
//   - Graceful drain: stop admitting, finish in-flight requests within a
//     deadline, cancel cooperatively past it, then stop the writer; zero
//     goroutines outlive Drain.
//
// Fault injection reaches the write path through two dedicated sites
// (faultinject.SiteServerApply, faultinject.SiteServerPublish) so the
// chaos suite can hammer a live server and assert snapshot isolation.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lincount"
	"lincount/internal/faultinject"
	"lincount/internal/obsv"
	"lincount/internal/wal"
)

// Config parameterizes a Server. The zero value of every limit field
// selects a sane default; Program and DB are required.
type Config struct {
	// Program is the loaded program all queries evaluate against.
	Program *lincount.Program
	// DB is the initial database. Ownership passes to the server: the
	// caller must not write to it after New (reads would race the write
	// path's forks).
	DB *lincount.Database

	// MaxConcurrent bounds simultaneously evaluating read requests
	// (default 16).
	MaxConcurrent int
	// MaxQueue bounds read requests waiting for a concurrency slot;
	// beyond it requests are shed with BusyError (default 64).
	MaxQueue int
	// WriteQueue bounds write requests waiting for the writer goroutine;
	// beyond it writes are shed with BusyError (default 256).
	WriteQueue int
	// MaxBatch bounds write requests coalesced into one epoch (default 64).
	MaxBatch int
	// WriteRetries is how many times a retryably failing batch apply is
	// retried before the batch's requests fail (default 3).
	WriteRetries int
	// RetryBackoff is the first retry's backoff, doubling per attempt
	// (default 1ms).
	RetryBackoff time.Duration

	// DefaultTimeout is applied to requests that carry no deadline of
	// their own (default 10s). MaxTimeout clamps requested deadlines
	// (default 60s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxDerivedFacts is the per-request derived-fact budget when the
	// request does not set a smaller one (default 10,000,000; 0 keeps
	// the default, use -1 for unlimited).
	MaxDerivedFacts int

	// DataDir, when set, makes the server durable: writes are logged to
	// a WAL under this directory before they become visible, and New
	// recovers the directory's checkpoint+log state before serving. The
	// recovered state is applied ON TOP of DB, so when a manifest exists
	// the caller should pass a database without preloaded facts (loading
	// them again would resurrect ones later retracted). Empty means
	// in-memory only — the pre-durability behavior.
	DataDir string
	// WALSync is the WAL fsync policy (default wal.SyncAlways);
	// WALSyncInterval is the flush lag under wal.SyncInterval.
	WALSync         wal.SyncPolicy
	WALSyncInterval time.Duration
	// CheckpointBytes and CheckpointRecords are the live-segment size and
	// record-count thresholds past which a checkpoint is triggered
	// automatically (defaults 8MiB and 4096; negative disables the
	// threshold).
	CheckpointBytes   int64
	CheckpointRecords int

	// Inject, when non-nil, arms the server-side fault sites
	// (server.write, server.publish, and the wal.* sites when durable) —
	// the chaos harness's hook. Production servers leave it nil and pay
	// one pointer comparison.
	Inject *faultinject.Injector
	// EvalOptions are appended to every evaluation (chaos tests pass
	// WithFaultInjection here to perturb the read path).
	EvalOptions []lincount.Option

	// SlowQuery is the latency threshold past which a completed query is
	// captured in the slow-query log with its full diagnostic record —
	// planner ranking, per-rule profiles, degradation chain, queue wait —
	// and logged at warn level. Zero disables the slow log; requests
	// under the threshold pay one time comparison.
	SlowQuery time.Duration
	// SlowLogSize bounds the slow-query ring (default 256).
	SlowLogSize int
	// Log receives the server's structured log lines (request outcomes,
	// writer-path events, recovery, drain). Nil disables logging — every
	// method of a nil *obsv.Logger is a no-op.
	Log *obsv.Logger
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxConcurrent <= 0 {
		out.MaxConcurrent = 16
	}
	if out.MaxQueue < 0 {
		out.MaxQueue = 0
	} else if out.MaxQueue == 0 {
		out.MaxQueue = 64
	}
	if out.WriteQueue <= 0 {
		out.WriteQueue = 256
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 64
	}
	if out.WriteRetries < 0 {
		out.WriteRetries = 0
	} else if out.WriteRetries == 0 {
		out.WriteRetries = 3
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = time.Millisecond
	}
	if out.DefaultTimeout <= 0 {
		out.DefaultTimeout = 10 * time.Second
	}
	if out.MaxTimeout <= 0 {
		out.MaxTimeout = 60 * time.Second
	}
	if out.MaxDerivedFacts == 0 {
		out.MaxDerivedFacts = 10_000_000
	}
	if out.CheckpointBytes == 0 {
		out.CheckpointBytes = 8 << 20
	}
	if out.CheckpointRecords == 0 {
		out.CheckpointRecords = 4096
	}
	if out.SlowLogSize <= 0 {
		out.SlowLogSize = 256
	}
	return out
}

// Snapshot is one published epoch: an immutable database plus its
// sequence number. Readers evaluate against the snapshot they loaded at
// admission; the epoch is echoed in responses so clients can reason
// about read-your-writes.
type Snapshot struct {
	Epoch uint64
	DB    *lincount.Database
	// Mat is the epoch's incrementally maintained materialisation, kept
	// in lockstep with DB by the writer goroutine. Nil when the program
	// is outside the maintainable fragment (negation) or when the
	// initial materialisation failed — reads then evaluate per request
	// as before.
	Mat *lincount.Materialization
}

// ErrBusy is the sentinel every admission-control rejection matches:
// errors.Is(err, ErrBusy) reports the server shed the request because
// the concurrency semaphore and its wait queue (or the write queue)
// were full. Busy errors are retryable by the client after backoff.
var ErrBusy = errors.New("server: too busy")

// BusyError is the structured load-shedding error: the admission state
// at the moment the request was shed. It matches errors.Is(err, ErrBusy).
type BusyError struct {
	// InFlight and Queued are the admission gauges at shed time.
	InFlight, Queued int
	// Write reports whether the write queue (rather than the read
	// semaphore) was the full resource.
	Write bool
}

func (e *BusyError) Error() string {
	if e.Write {
		return fmt.Sprintf("server: too busy (write queue full, %d in flight)", e.InFlight)
	}
	return fmt.Sprintf("server: too busy (%d in flight, %d queued)", e.InFlight, e.Queued)
}

// Is makes errors.Is(err, ErrBusy) report true.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// ErrDraining is returned to requests that arrive after a drain began
// (or after Close). Clients should fail over to another replica.
var ErrDraining = errors.New("server: draining")

// server lifecycle states, guarded by stateMu.
const (
	stateServing = iota
	stateDraining
	stateClosed
)

// Server is a running query server. Create with New, serve its Handler,
// stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg  Config
	snap atomic.Pointer[Snapshot]

	// Admission control: sem holds one token per evaluating request;
	// queued counts requests waiting for a token, bounded by MaxQueue.
	sem    chan struct{}
	queued atomic.Int64

	// Lifecycle: state transitions serving → draining → closed under
	// stateMu; requests take the read lock to check the state and join
	// the in-flight WaitGroup atomically with respect to Drain.
	stateMu  sync.RWMutex
	state    int
	inflight sync.WaitGroup

	// baseCtx is canceled (with cause) to force-cancel in-flight
	// requests when the drain deadline expires.
	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	// The single-writer path: Write requests enqueue on writes; the
	// writer goroutine coalesces, applies, publishes, and answers.
	writes     chan writeReq
	writerDone chan struct{}

	// Durability (nil/zero when Config.DataDir is empty). walW is the
	// live WAL segment writer, swapped by rotation; rotateC carries the
	// checkpointer's rotation rendezvous to the writer goroutine; ckptC
	// and ckptKick feed the checkpointer goroutine (admin calls and
	// threshold nudges); ckptStop/ckptDone bound its lifetime.
	walW        atomic.Pointer[wal.Writer]
	rotateC     chan rotateReq
	ckptC       chan ckptCall
	ckptKick    chan struct{}
	ckptStop    chan struct{}
	ckptDone    chan struct{}
	lastCkptSeq atomic.Uint64
	recovered   RecoveryInfo

	// Maintenance gauges for /v1/stats: batches applied through the
	// incremental engine and batches that fell back to base apply plus
	// re-materialisation.
	maintBatches   atomic.Int64
	maintFallbacks atomic.Int64

	// prepared caches PreparedQuery by (query, strategy). Prepared
	// queries are immutable and DB-independent (plans are pure functions
	// of program x query x strategy), so one entry serves every epoch.
	prepMu   sync.Mutex
	prepared map[prepKey]*lincount.PreparedQuery

	// Per-request observability: reg tracks in-flight queries (GET
	// /v1/queries, DELETE /v1/queries/{id}); slow is the slow-query ring
	// behind GET /v1/debug/slowlog.
	reg  *registry
	slow *obsv.RequestLog
}

// badRequestError wraps validation failures (unparsable query or fact
// text, unknown strategy) — the client's fault, mapped to HTTP 400.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// classOf maps a request error to its metrics label (the "class" label
// of lincount_server_errors_total) — the server-side degradation
// taxonomy: shed, refused, canceled, over budget, bug, bad input, other.
func classOf(err error) string {
	var interr *lincount.InternalError
	var badReq *badRequestError
	switch {
	case errors.As(err, &badReq):
		return "bad_request"
	case errors.Is(err, ErrBusy):
		return "busy"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrKilled):
		return "killed"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	case errors.Is(err, lincount.ErrResourceLimit):
		return "limit"
	case errors.As(err, &interr):
		return "internal"
	default:
		return "other"
	}
}

// fail counts err into the error metrics and returns it — every public
// entry point's single exit for failures.
func fail(err error) error {
	obsv.MServerErrors.Add(classOf(err), 1)
	return err
}

// outcomeOf maps a request's final error to the outcome label of
// lincount_request_duration_seconds.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrBusy), errors.Is(err, ErrDraining):
		return "shed"
	case errors.Is(err, ErrKilled):
		return "killed"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	default:
		return "error"
	}
}

type prepKey struct {
	query    string
	strategy lincount.Strategy
}

// preparedCacheCap bounds the server's prepared-query map; past it the
// map is dropped wholesale (entries are cheap to rebuild — the plans
// behind them stay in the program's LRU plan cache).
const preparedCacheCap = 4096

// New starts a server over cfg: the initial snapshot is published and
// the writer goroutine is running. With Config.DataDir set, the data
// directory's checkpoint and WAL are recovered first — the published
// snapshot already contains every replayed write, and its epoch resumes
// where the log left off — so by the time New returns no client can
// observe a pre-recovery state. The server is serving immediately;
// attach Handler to an http.Server to expose it.
func New(cfg Config) (*Server, error) {
	if cfg.Program == nil || cfg.DB == nil {
		return nil, errors.New("server: Config.Program and Config.DB are required")
	}
	c := cfg.withDefaults()
	baseCtx, baseCancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        c,
		sem:        make(chan struct{}, c.MaxConcurrent),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		writes:     make(chan writeReq, c.WriteQueue),
		writerDone: make(chan struct{}),
		prepared:   make(map[prepKey]*lincount.PreparedQuery),
		reg:        newRegistry(c.MaxConcurrent),
		slow:       obsv.NewRequestLog(c.SlowLogSize),
	}
	epoch := uint64(0)
	if c.DataDir != "" {
		w, info, err := recoverData(&c, c.DB)
		if err != nil {
			c.Log.Error("recovery failed", obsv.FStr("dir", c.DataDir), obsv.FErr("error", err))
			return nil, err
		}
		c.Log.Info("recovered data dir",
			obsv.FStr("dir", c.DataDir),
			obsv.FUint("epoch", info.Epoch),
			obsv.FUint("checkpoint_seq", info.CheckpointSeq),
			obsv.FInt("segments", int64(info.Segments)),
			obsv.FInt("records_replayed", int64(info.Records)),
			obsv.FInt("truncated_bytes", info.TruncatedBytes))
		s.walW.Store(w)
		s.recovered = info
		s.lastCkptSeq.Store(info.CheckpointSeq)
		epoch = info.Epoch
		s.rotateC = make(chan rotateReq)
		s.ckptC = make(chan ckptCall)
		s.ckptKick = make(chan struct{}, 1)
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
	}
	// Materialise the recovered state once; every subsequent epoch is
	// maintained incrementally by the writer from the same ordered op
	// stream the WAL frames. Programs outside the maintainable fragment
	// (ErrNotIncremental) — or any materialisation failure — downgrade
	// to per-request evaluation rather than failing startup.
	var mat *lincount.Materialization
	if m, err := c.Program.Materialize(baseCtx, c.DB); err == nil {
		mat = m
	}
	s.snap.Store(&Snapshot{Epoch: epoch, DB: c.DB, Mat: mat})
	obsv.MServerEpoch.Set(int64(epoch))
	c.Log.Info("server started",
		obsv.FUint("epoch", epoch),
		obsv.FBool("materialized", mat != nil),
		obsv.FBool("durable", c.DataDir != ""),
		obsv.FInt("max_concurrent", int64(c.MaxConcurrent)),
		obsv.FDur("slow_query", c.SlowQuery))
	go s.writer()
	if c.DataDir != "" {
		go s.checkpointer()
	}
	return s, nil
}

// Snapshot returns the currently published epoch. The database inside is
// immutable; it is safe to evaluate against it indefinitely (later
// epochs share its storage copy-on-write).
func (s *Server) Snapshot() Snapshot { return *s.snap.Load() }

// State returns the lifecycle state as a readiness string: "serving",
// "draining" or "closed".
func (s *Server) State() string {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	switch s.state {
	case stateServing:
		return "serving"
	case stateDraining:
		return "draining"
	default:
		return "closed"
	}
}

// begin registers a request as in-flight, failing with ErrDraining once
// a drain has begun. The read lock orders the WaitGroup Add against
// Drain's state flip, so Drain's Wait always covers every admitted
// request and never races an Add.
func (s *Server) begin() error {
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()
	if s.state != stateServing {
		return ErrDraining
	}
	s.inflight.Add(1)
	return nil
}

// acquire takes a concurrency slot, waiting in the bounded queue when
// the semaphore is full and shedding with BusyError when the queue is
// full too. The wait respects ctx, so a queued request's deadline keeps
// counting while it waits.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	for {
		q := s.queued.Load()
		if q >= int64(s.cfg.MaxQueue) {
			obsv.MServerShed.Add(1)
			return &BusyError{InFlight: len(s.sem), Queued: int(q)}
		}
		if s.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	obsv.MServerQueued.Add(1)
	defer func() {
		s.queued.Add(-1)
		obsv.MServerQueued.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &lincount.CanceledError{Component: "server", Cause: context.Cause(ctx)}
	}
}

func (s *Server) release() { <-s.sem }

// requestCtx derives the evaluation context for one request: the
// caller's context, the request deadline (clamped to MaxTimeout,
// defaulted to DefaultTimeout), and the server's base context so a
// drain-deadline force-cancel reaches every in-flight evaluation. The
// middle return is the context's own cancel func — the registry stores
// it as the kill lever for DELETE /v1/queries/{id}, avoiding a wrapper
// context per request. The last return (stop) must be deferred.
func (s *Server) requestCtx(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc, func()) {
	if timeout <= 0 || timeout > s.cfg.MaxTimeout {
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		} else {
			timeout = s.cfg.DefaultTimeout
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	return ctx, cancel, func() {
		stopAfter()
		cancel()
	}
}

// QueryRequest is one read: a query evaluated against the snapshot
// current at admission time.
type QueryRequest struct {
	// Query is the goal text, e.g. "?- sg(a,X).".
	Query string `json:"query"`
	// Strategy names the evaluation strategy ("" = auto).
	Strategy string `json:"strategy,omitempty"`
	// TimeoutMS bounds the request (0 = server default; clamped to the
	// server max).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxFacts bounds derived facts for this request (0 = server
	// default; requests can lower the budget, never raise it past the
	// server's).
	MaxFacts int `json:"max_facts,omitempty"`
	// Trace records a structured trace of this evaluation and publishes
	// it at /trace.json.
	Trace bool `json:"trace,omitempty"`
}

// QueryStats is the response's work summary (a subset of lincount.Stats).
type QueryStats struct {
	Inferences   int64 `json:"inferences"`
	DerivedFacts int64 `json:"derived_facts"`
	Probes       int64 `json:"probes"`
	Iterations   int   `json:"iterations"`
	AnswerTuples int   `json:"answer_tuples,omitempty"`
	DurationUS   int64 `json:"duration_us"`
}

// QueryResponse is one read's answer set plus provenance: the epoch it
// was served from and the concrete strategy that produced it.
type QueryResponse struct {
	Answers      [][]string `json:"answers"`
	Epoch        uint64     `json:"epoch"`
	Strategy     string     `json:"strategy"`
	PlanCacheHit bool       `json:"plan_cache_hit"`
	Degraded     int        `json:"degraded,omitempty"`
	Stats        QueryStats `json:"stats"`
}

// Query evaluates one read request against the current snapshot. It
// applies admission control, the request deadline and fact budget, and
// returns typed errors: BusyError (shed), ErrDraining, CanceledError,
// ResourceLimitError, or the evaluation's own error.
func (s *Server) Query(ctx context.Context, req QueryRequest) (resp *QueryResponse, err error) {
	if err = s.begin(); err != nil {
		return nil, fail(err)
	}
	defer s.inflight.Done()

	start := time.Now()
	obsv.MServerInFlight.Add(1)
	defer obsv.MServerInFlight.Add(-1)
	defer func() {
		obsv.MServerReqDuration.Observe("query", outcomeOf(err), time.Since(start).Seconds())
	}()

	ctx, cancel, stop := s.requestCtx(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	defer stop()
	if err = s.acquire(ctx); err != nil {
		return nil, fail(err)
	}
	defer s.release()
	queueWait := time.Since(start)
	obsv.MServerQueueWait.Observe(queueWait.Seconds())

	// Register the admitted query in the active-query registry. The slot
	// holds the request context's own cancel func, so DELETE
	// /v1/queries/{id} stops the evaluation without a wrapper context;
	// registering after admission keeps the fixed slot pool (sized by
	// MaxConcurrent) from ever running dry.
	reqID := RequestID(ctx)
	deadline, _ := ctx.Deadline()
	slot := s.reg.begin(reqID, req.Query, cancel, deadline)
	defer s.reg.end(slot)

	// Auto reads on a maintained server are served straight from the
	// materialisation, no fixpoint: an index probe on the goal's bound
	// columns, a scan when none is bound (Materialization.Answers).
	// Explicit strategies and traced requests still evaluate — they are
	// asking for a specific computation.
	if snap := s.snap.Load(); snap.Mat != nil && !req.Trace &&
		(req.Strategy == "" || req.Strategy == "auto") {
		s.reg.setRunning(slot, "materialized", snap.Epoch)
		rows, merr := snap.Mat.Answers(req.Query)
		if merr != nil {
			return nil, fail(&badRequestError{merr})
		}
		obsv.MServerRequests.Add("query", 1)
		resp = &QueryResponse{
			Answers:  rows,
			Epoch:    snap.Epoch,
			Strategy: "materialized",
			Stats: QueryStats{
				DerivedFacts: snap.Mat.DerivedFacts(),
				AnswerTuples: len(rows),
				DurationUS:   time.Since(start).Microseconds(),
			},
		}
		if s.cfg.SlowQuery > 0 && time.Since(start) >= s.cfg.SlowQuery {
			s.recordSlow(slot, reqID, req, snap, "materialized", start, queueWait, nil, nil, len(rows))
		}
		return resp, nil
	}

	strategy := lincount.Auto
	if req.Strategy != "" && req.Strategy != "auto" {
		st, perr := lincount.ParseStrategy(req.Strategy)
		if perr != nil {
			return nil, fail(&badRequestError{perr})
		}
		strategy = st
	}
	pq, perr := s.preparedFor(req.Query, strategy)
	if perr != nil {
		return nil, fail(&badRequestError{perr})
	}

	maxFacts := s.cfg.MaxDerivedFacts
	if req.MaxFacts > 0 && (maxFacts < 0 || req.MaxFacts < maxFacts) {
		maxFacts = req.MaxFacts
	}
	opts := append([]lincount.Option{}, s.cfg.EvalOptions...)
	if maxFacts > 0 {
		opts = append(opts, lincount.WithMaxDerivedFacts(maxFacts))
	}
	var tracer *lincount.Tracer
	if req.Trace {
		tracer = lincount.NewTracer()
		opts = append(opts, lincount.WithTracer(tracer))
	} else if s.cfg.SlowQuery > 0 {
		// Profile every untraced evaluation so a slow one can be
		// attributed rule by rule: per-rule clock reads, no event buffer.
		opts = append(opts, lincount.WithRuleProfile())
	}
	if slot != nil {
		// Mirror derived-fact progress into the slot for GET /v1/queries.
		opts = append(opts, lincount.WithFactProgress(slot.Facts()))
	}

	snap := s.snap.Load()
	obsv.MServerRequests.Add("query", 1)
	s.reg.setRunning(slot, strategy.String(), snap.Epoch)
	res, eerr := pq.EvalContext(ctx, snap.DB, opts...)
	if eerr != nil {
		// An operator kill surfaces as a cancellation; convert it to its
		// typed error so clients can tell it from their own deadline.
		if s.reg.killed(slot) {
			eerr = &KilledError{ID: slot.ID()}
		}
		if s.cfg.SlowQuery > 0 && time.Since(start) >= s.cfg.SlowQuery {
			s.recordSlow(slot, reqID, req, snap, strategy.String(), start, queueWait, nil, eerr, 0)
		}
		return nil, fail(eerr)
	}
	if tracer != nil {
		obsv.SetLastTrace(tracer)
	}
	resp = &QueryResponse{
		Answers:      res.Answers,
		Epoch:        snap.Epoch,
		Strategy:     res.Strategy.String(),
		PlanCacheHit: res.PlanCacheHit,
		Degraded:     len(res.Degraded),
		Stats: QueryStats{
			Inferences:   res.Stats.Inferences,
			DerivedFacts: res.Stats.DerivedFacts,
			Probes:       res.Stats.Probes,
			Iterations:   res.Stats.Iterations,
			DurationUS:   res.Stats.Duration.Microseconds(),
		},
	}
	if s.cfg.SlowQuery > 0 && time.Since(start) >= s.cfg.SlowQuery {
		s.recordSlow(slot, reqID, req, snap, res.Strategy.String(), start, queueWait, res, nil, len(res.Answers))
	}
	return resp, nil
}

// recordSlow captures the full diagnostic record of a request that
// crossed Config.SlowQuery: identity, timing split, planner ranking,
// per-rule profiles and the degradation chain. Everything beyond the
// threshold comparison — including the planner ranking — is computed
// only here, on the slow path.
func (s *Server) recordSlow(slot *qslot, reqID string, req QueryRequest, snap *Snapshot,
	strategy string, start time.Time, queueWait time.Duration, res *lincount.Result, evalErr error, answers int) {
	dur := time.Since(start)
	rec := obsv.RequestRecord{
		ID:          slot.ID(),
		RequestID:   reqID,
		Handler:     "query",
		Query:       req.Query,
		Strategy:    strategy,
		Epoch:       snap.Epoch,
		Start:       start,
		DurationUS:  dur.Microseconds(),
		QueueWaitUS: queueWait.Microseconds(),
		Outcome:     outcomeOf(evalErr),
	}
	if evalErr != nil {
		rec.Err = evalErr.Error()
	}
	if res != nil {
		rec.PlanCacheHit = res.PlanCacheHit
		rec.DerivedFacts = res.Stats.DerivedFacts
		rec.AnswerTuples = len(res.Answers)
		for _, rp := range res.RuleProfile {
			rec.Rules = append(rec.Rules, obsv.RuleRecord{
				Rule:         rp.Rule,
				Runs:         rp.Runs,
				Inferences:   rp.Inferences,
				DerivedFacts: rp.DerivedFacts,
				DurationUS:   rp.Duration.Microseconds(),
			})
		}
		for _, a := range res.Degraded {
			rec.Degraded = append(rec.Degraded, obsv.AttemptRecord{
				Strategy:   a.Strategy.String(),
				Err:        a.Err,
				DurationUS: a.Duration.Microseconds(),
			})
		}
	} else {
		rec.AnswerTuples = answers
	}
	if choices, cerr := lincount.PlannerChoices(s.cfg.Program, snap.DB, req.Query); cerr == nil {
		for _, c := range choices {
			rec.Planner = append(rec.Planner, obsv.PlannerRank{
				Strategy: c.Strategy.String(),
				Cost:     c.Cost,
				Reason:   c.Reason,
			})
		}
	}
	s.slow.Add(rec)
	obsv.MServerSlowQueries.Add(1)
	s.cfg.Log.Warn("slow query",
		obsv.FUint("id", rec.ID),
		obsv.FStr("request_id", reqID),
		obsv.FStr("query", req.Query),
		obsv.FStr("strategy", strategy),
		obsv.FStr("outcome", rec.Outcome),
		obsv.FDur("duration", dur),
		obsv.FDur("queue_wait", queueWait),
		obsv.FUint("epoch", snap.Epoch))
}

// ActiveQueries returns the in-flight queries, oldest first — the data
// behind GET /v1/queries.
func (s *Server) ActiveQueries() []QueryInfo { return s.reg.snapshot(time.Now()) }

// KillQuery cancels the in-flight query whose registry id (decimal) or
// request id equals key, returning the registry id of the query it
// found. The evaluation observes the cancellation at its next
// cooperative check and its request fails with a *KilledError.
func (s *Server) KillQuery(key string) (uint64, bool) {
	id, ok := s.reg.kill(key)
	if ok {
		obsv.MServerQueriesKilled.Add(1)
		s.cfg.Log.Info("query killed", obsv.FUint("id", id), obsv.FStr("key", key))
	}
	return id, ok
}

// SlowLog returns the retained slow-query records, newest first — the
// data behind GET /v1/debug/slowlog.
func (s *Server) SlowLog() []obsv.RequestRecord { return s.slow.Snapshot() }

// preparedFor returns the cached PreparedQuery for (query, strategy),
// preparing it on first use. Prepared queries are immutable and safe to
// share; the underlying compiled plans live in the program's LRU plan
// cache, so this map only amortizes parsing and the facade plumbing.
func (s *Server) preparedFor(query string, strategy lincount.Strategy) (*lincount.PreparedQuery, error) {
	key := prepKey{query: query, strategy: strategy}
	s.prepMu.Lock()
	pq := s.prepared[key]
	s.prepMu.Unlock()
	if pq != nil {
		return pq, nil
	}
	pq, err := lincount.Prepare(s.cfg.Program, query, strategy)
	if err != nil {
		return nil, err
	}
	s.prepMu.Lock()
	if cached, ok := s.prepared[key]; ok {
		pq = cached // a concurrent Prepare won; keep one canonical entry
	} else {
		if len(s.prepared) >= preparedCacheCap {
			s.prepared = make(map[prepKey]*lincount.PreparedQuery)
		}
		s.prepared[key] = pq
	}
	s.prepMu.Unlock()
	return pq, nil
}

// WriteRequest is one write: fact text to assert and/or retract. The
// request is applied atomically — a snapshot either contains all of its
// effects or none.
type WriteRequest struct {
	// Assert is fact text to add, e.g. "up(a,b). flat(b,c).".
	Assert string `json:"assert,omitempty"`
	// Retract is fact text to remove; absent facts are no-ops.
	Retract string `json:"retract,omitempty"`
	// TimeoutMS bounds how long the request waits for its batch to
	// publish (0 = server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WriteResponse reports the epoch that first contains the write.
type WriteResponse struct {
	Epoch     uint64 `json:"epoch"`
	Retracted int    `json:"retracted"`
}

type writeResult struct {
	epoch     uint64
	retracted int
	err       error
}

type writeReq struct {
	req  WriteRequest
	done chan writeResult
}

// Write submits one write request to the single-writer path and waits
// for its batch to publish (or fail). Shed with BusyError when the write
// queue is full. If ctx expires while the batch is in flight, Write
// returns a CanceledError but the batch may still publish — the write is
// at-most-once from the caller's perspective, exactly-once from the
// server's.
func (s *Server) Write(ctx context.Context, req WriteRequest) (resp *WriteResponse, err error) {
	if err = s.begin(); err != nil {
		return nil, fail(err)
	}
	defer s.inflight.Done()

	start := time.Now()
	obsv.MServerInFlight.Add(1)
	defer obsv.MServerInFlight.Add(-1)
	defer func() {
		obsv.MServerReqDuration.Observe("write", outcomeOf(err), time.Since(start).Seconds())
	}()

	ctx, _, stop := s.requestCtx(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
	defer stop()

	wr := writeReq{req: req, done: make(chan writeResult, 1)}
	select {
	case s.writes <- wr:
	default:
		obsv.MServerShed.Add(1)
		return nil, fail(&BusyError{InFlight: len(s.writes), Write: true})
	}
	obsv.MServerRequests.Add("write", 1)
	select {
	case res := <-wr.done:
		if res.err != nil {
			return nil, fail(res.err)
		}
		return &WriteResponse{Epoch: res.epoch, Retracted: res.retracted}, nil
	case <-ctx.Done():
		return nil, fail(&lincount.CanceledError{Component: "server", Cause: context.Cause(ctx)})
	}
}

// RequestID request-scoped correlation: the HTTP layer stores each
// request's id in the context (WithRequestID); the server reads it back
// for the registry and the slow-query log, so a record found in either
// can be matched to the access-log line and the client's response
// header.
type reqIDKey struct{}

// WithRequestID returns a context carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestID returns the context's request id, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// writer is the single-writer goroutine: it owns the fork-apply-publish
// cycle, so snapshot publication is trivially serialized — and, when
// durable, it owns the WAL appends and segment swaps for the same
// reason. It exits when the writes channel is closed (Drain), after
// draining queued requests. Rotation requests are only serviced between
// batches, so a swap can never race an append (rotateC is nil, hence
// never ready, on non-durable servers).
func (s *Server) writer() {
	defer close(s.writerDone)
	for {
		var wr writeReq
		var ok bool
		select {
		case rr := <-s.rotateC:
			s.rotate(rr)
			continue
		case wr, ok = <-s.writes:
			if !ok {
				return
			}
		}
		batch := []writeReq{wr}
		// Coalesce whatever is already queued, up to the batch cap: one
		// fork + one publish amortized over every waiting request.
		for len(batch) < s.cfg.MaxBatch {
			select {
			case more, ok := <-s.writes:
				if !ok {
					s.applyBatch(batch)
					return
				}
				batch = append(batch, more)
			default:
				goto apply
			}
		}
	apply:
		s.applyBatch(batch)
		s.maybeKickCheckpoint()
	}
}

// retryableWrite reports whether a batch-apply failure is worth
// retrying: injected faults (the degradation taxonomy's retryable class)
// and resource-limit trips. Parse and arity errors are permanent.
func retryableWrite(err error) bool {
	return errors.Is(err, faultinject.ErrInjected) || errors.Is(err, lincount.ErrResourceLimit)
}

// applyBatch forks the current snapshot, applies every request in the
// batch, and publishes the fork as the next epoch. A retryable failure
// (injected fault) discards the fork and retries the whole batch with
// exponential backoff; a permanent failure (parse error, arity clash)
// fails only the offending request and re-applies the rest from a fresh
// fork. Each surviving request is answered with the published epoch.
// Panics are contained per batch: every request gets an InternalError
// and the snapshot stays at the previous epoch.
func (s *Server) applyBatch(batch []writeReq) {
	failed := make([]error, len(batch))
	retracted := make([]int, len(batch))
	answered := make([]bool, len(batch))
	defer func() {
		r := recover()
		for i, wr := range batch {
			if answered[i] {
				continue
			}
			err := failed[i]
			if err == nil {
				// Only reachable when the apply loop panicked before
				// this request got a verdict.
				err = &lincount.InternalError{Value: r, Stack: string(debug.Stack())}
			}
			wr.done <- writeResult{err: err}
		}
	}()

	cur := s.snap.Load()
	attempt := 0
	for {
		fork, nextMat, retryErr, restarted := s.applyAttempt(cur, batch, failed, retracted)
		if retryErr == nil && !restarted {
			// The batch applied cleanly; the publish site is the last
			// chance for the chaos harness to object before readers can
			// observe the new epoch.
			if err := s.cfg.Inject.Hit(faultinject.SiteServerPublish); err != nil {
				retryErr = err
			}
		}
		if retryErr != nil {
			attempt++
			if attempt > s.cfg.WriteRetries {
				s.cfg.Log.Error("write batch failed",
					obsv.FUint("epoch", cur.Epoch+1),
					obsv.FInt("attempts", int64(attempt)),
					obsv.FErr("error", retryErr))
				for i := range batch {
					if failed[i] == nil {
						failed[i] = retryErr
					}
				}
				return
			}
			obsv.MServerWriteRetries.Add(1)
			s.cfg.Log.Warn("write batch retry",
				obsv.FUint("epoch", cur.Epoch+1),
				obsv.FInt("attempt", int64(attempt)),
				obsv.FErr("error", retryErr))
			time.Sleep(s.cfg.RetryBackoff << (attempt - 1))
			continue
		}
		if restarted {
			continue // no backoff: the deterministic failure was excised
		}
		live := 0
		for i := range batch {
			if failed[i] == nil {
				live++
			}
		}
		if live == 0 {
			return // nothing survived; do not publish an empty epoch
		}

		// Durable before visible before acked: the batch's WAL record
		// must be on the log before the snapshot is stored. A failed
		// append rolls its partial frame back, so injected faults retry
		// the whole cycle cleanly; a real I/O failure fails the batch —
		// the epoch is never published without its durability.
		if err := s.walAppend(cur.Epoch+1, batch, failed); err != nil {
			if errors.Is(err, faultinject.ErrInjected) {
				attempt++
				if attempt > s.cfg.WriteRetries {
					for i := range batch {
						if failed[i] == nil {
							failed[i] = err
						}
					}
					return
				}
				obsv.MServerWriteRetries.Add(1)
				time.Sleep(s.cfg.RetryBackoff << (attempt - 1))
				continue
			}
			s.cfg.Log.Error("wal append failed",
				obsv.FUint("epoch", cur.Epoch+1),
				obsv.FErr("error", err))
			for i := range batch {
				if failed[i] == nil {
					failed[i] = fmt.Errorf("server: write not durable: %w", err)
				}
			}
			return
		}

		next := &Snapshot{Epoch: cur.Epoch + 1, DB: fork, Mat: nextMat}
		s.snap.Store(next)
		obsv.MServerEpoch.Set(int64(next.Epoch))
		obsv.MServerWriteBatches.Add(1)
		obsv.MServerWriteBatchOps.Observe(float64(len(batch)))
		s.cfg.Log.Debug("batch applied",
			obsv.FUint("epoch", next.Epoch),
			obsv.FInt("requests", int64(len(batch))),
			obsv.FInt("live", int64(live)),
			obsv.FBool("maintained", nextMat != nil))
		for i, wr := range batch {
			if failed[i] == nil {
				answered[i] = true
				wr.done <- writeResult{epoch: next.Epoch, retracted: retracted[i]}
			}
		}
		return
	}
}

// reqWriteOps frames one request as its ordered write ops — assert
// before retract, the exact op order the WAL logs for the request and
// the order recovery replays. Maintenance, base apply, and replay all
// consume this one framing, so the three paths cannot drift.
func reqWriteOps(req WriteRequest) []lincount.WriteOp {
	var ops []lincount.WriteOp
	if req.Assert != "" {
		ops = append(ops, lincount.WriteOp{Text: req.Assert})
	}
	if req.Retract != "" {
		ops = append(ops, lincount.WriteOp{Retract: true, Text: req.Retract})
	}
	return ops
}

// applySequential applies ordered ops to db without maintenance:
// asserts via LoadFacts, retracts via RetractFacts, in frame order. It
// is the shared base-application path of the non-materialized write
// path, the maintenance fallback, and WAL recovery replay.
func applySequential(db *lincount.Database, ops []lincount.WriteOp) (retracted int, err error) {
	for _, op := range ops {
		if op.Retract {
			n, err := db.RetractFacts(op.Text)
			retracted += n
			if err != nil {
				return retracted, err
			}
		} else if err := db.LoadFacts(op.Text); err != nil {
			return retracted, err
		}
	}
	return retracted, nil
}

// batchOps flattens the live requests of a batch into one ordered op
// stream; opReq maps each op back to its request's batch index.
func batchOps(batch []writeReq, failed []error) (ops []lincount.WriteOp, opReq []int) {
	for i, wr := range batch {
		if failed[i] != nil {
			continue
		}
		for _, op := range reqWriteOps(wr.req) {
			ops = append(ops, op)
			opReq = append(opReq, i)
		}
	}
	return ops, opReq
}

// applyAttempt runs one attempt at applying the batch on top of cur:
// through incremental maintenance when the snapshot carries a
// materialisation, through plain base application otherwise. It returns
// the fork to publish plus the next epoch's materialisation (nil when
// maintenance is off), or a retryable error, or restarted=true when a
// permanently failing request was excised and the batch must be rebuilt
// from a fresh fork.
func (s *Server) applyAttempt(cur *Snapshot, batch []writeReq, failed []error, retracted []int) (*lincount.Database, *lincount.Materialization, error, bool) {
	// The write fault site fires once per live request per attempt,
	// before any application path runs, so the chaos schedules exercise
	// maintained and unmaintained servers identically.
	for i := range batch {
		if failed[i] != nil {
			continue
		}
		if err := s.cfg.Inject.Hit(faultinject.SiteServerApply); err != nil {
			return nil, nil, err, false
		}
	}

	if cur.Mat != nil {
		ops, opReq := batchOps(batch, failed)
		m2, info, err := cur.Mat.Apply(s.baseCtx, ops)
		if err == nil {
			for i := range batch {
				if failed[i] == nil {
					retracted[i] = 0
				}
			}
			for k, op := range ops {
				if op.Retract {
					retracted[opReq[k]] += info.RetractedPerOp[k]
				}
			}
			s.maintBatches.Add(1)
			obsv.MServerMaintBatches.Add(1)
			return m2.Database(), m2, nil, false
		}
		var we *lincount.WriteError
		if errors.As(err, &we) {
			// Permanent per-op failure: maintenance rejected the whole
			// batch atomically, so excise the offending request and
			// restart with the rest.
			failed[opReq[we.Index]] = &badRequestError{we.Err}
			return nil, nil, nil, true
		}
		if errors.Is(err, faultinject.ErrInjected) {
			return nil, nil, err, false
		}
		// Typed maintenance failure (internal invariant, resource limit,
		// cancellation): fall back to base application for this batch and
		// re-materialise from scratch. If even that fails, maintenance
		// stays off for subsequent epochs (Mat nil) — reads degrade to
		// per-request evaluation, writes keep working.
		s.maintFallbacks.Add(1)
		obsv.MServerMaintFallbacks.Add(1)
		s.cfg.Log.Warn("maintenance fallback",
			obsv.FUint("epoch", cur.Epoch+1),
			obsv.FErr("error", err))
	}

	fork := cur.DB.Fork()
	for i, wr := range batch {
		if failed[i] != nil {
			continue
		}
		retracted[i] = 0
		n, err := applySequential(fork, reqWriteOps(wr.req))
		retracted[i] = n
		if err == nil {
			continue
		}
		if retryableWrite(err) {
			return nil, nil, err, false
		}
		// Permanent: fail this request and rebuild the batch without it
		// (the fork may hold its partial effects).
		failed[i] = &badRequestError{err}
		return nil, nil, nil, true
	}
	var nextMat *lincount.Materialization
	if cur.Mat != nil {
		if m, err := s.cfg.Program.Materialize(s.baseCtx, fork); err == nil {
			nextMat = m
		}
	}
	return fork, nextMat, nil, false
}

// Drain gracefully stops the server: flip to draining (new requests get
// ErrDraining, /readyz goes unready), wait for in-flight requests to
// finish, and past ctx's deadline cancel them cooperatively and wait for
// the (prompt) unwind. The writer goroutine drains its queue and exits.
// Drain is idempotent; concurrent calls all block until the first
// completes. It returns an error only when the deadline forced
// cancellation — the server is fully stopped either way, with no
// goroutines left behind.
func (s *Server) Drain(ctx context.Context) error {
	s.stateMu.Lock()
	if s.state != stateServing {
		s.stateMu.Unlock()
		<-s.writerDone // wait for the first drainer to finish the job
		return nil
	}
	s.state = stateDraining
	s.stateMu.Unlock()
	obsv.MServerDrains.Add(1)
	s.cfg.Log.Info("drain started", obsv.FInt("active_queries", int64(s.reg.active())))

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	forced := false
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: cancel every in-flight evaluation through the base
		// context. Cooperative cancellation is threaded through every
		// strategy, so the unwind is prompt.
		forced = true
		s.baseCancel(ErrDraining)
		<-done
	}

	// No producers remain (begin() rejects new requests, and every
	// admitted one has returned), so closing the write queue is safe;
	// the writer finishes whatever is still queued and exits. An admin
	// checkpoint registers as in-flight, so by this point the
	// checkpointer is idle or mid-auto-checkpoint; stopping it after the
	// writer means a rotation it is still waiting on aborts via
	// writerDone instead of deadlocking, and a snapshot save it is mid-
	// way through finishes against an immutable database. The WAL is
	// sealed last, once nothing can append.
	close(s.writes)
	<-s.writerDone
	if s.ckptStop != nil {
		close(s.ckptStop)
		<-s.ckptDone
	}
	if w := s.walW.Load(); w != nil {
		_ = w.Sync() // best effort: every acked record is already synced per policy
		w.Close()
	}

	s.stateMu.Lock()
	s.state = stateClosed
	s.stateMu.Unlock()
	s.baseCancel(nil) // release the context subtree either way
	s.cfg.Log.Info("drain complete", obsv.FBool("forced", forced))
	if forced {
		obsv.MServerDrainCanceled.Add(1)
		return errors.New("server: drain deadline expired; in-flight requests were canceled")
	}
	return nil
}

// Close stops the server immediately: in-flight requests are canceled
// right away and the writer exits after its queue drains. Equivalent to
// Drain with an already-expired deadline.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx) // forced cancellation is the expected path for Close
	return nil
}
