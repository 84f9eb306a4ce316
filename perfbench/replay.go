package main

// The traced run: the same seeded request stream, in-process, in two
// phases on `conns` goroutines, each half the run length:
//
//  1. server: requests go to an in-process server.Server configured like
//     lincountd's defaults; readers alternate blocks of untraced reads
//     and reads inside server.Query spans (writes are inside
//     server.Write spans), and the block times give the tracing
//     overhead;
//  2. replay: each request is replayed through the public functions of
//     the layers the server calls for it, in the server's order and with
//     its options, each call inside a span under one request root.
//
// The server itself carries no spans; its internal time split is read
// from the replay.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lincount"
	"lincount/internal/parser"
	"lincount/internal/server"
	"lincount/internal/symtab"
	"lincount/internal/term"
	"lincount/internal/wal"
)

// Options the server applies to every evaluation under lincountd's
// default flags: the derived-fact budget, and rule profiling because the
// slow-query log is on.
const (
	serverMaxFacts  = 10_000_000
	serverSlowQuery = 250 * time.Millisecond
)

// noRequest is the request id of set-up spans. Reads use their stream
// index and writes -(n+1).
const noRequest = math.MinInt64

// execSpan names the span of an evaluation by the layer that runs it.
var execSpan = map[string]string{
	"counting":         "engine.counting.EvalContext",
	"magic":            "engine.magic.EvalContext",
	"counting-runtime": "counting.EvalContext",
	"qsq":              "topdown.EvalContext",
}

// workCounts sums Result.Stats and ApplyInfo over replayed requests.
type workCounts struct {
	evals, answers, inferences, probes, nodes int64
	applies, overdeleted, rederived, derived  int64
}

func (a *workCounts) add(b *workCounts) {
	a.evals += b.evals
	a.answers += b.answers
	a.inferences += b.inferences
	a.probes += b.probes
	a.nodes += b.nodes
	a.applies += b.applies
	a.overdeleted += b.overdeleted
	a.rederived += b.rederived
	a.derived += b.derived
}

// InProc is the outcome of the traced run.
type InProc struct {
	Spans        []Span
	Work         map[string]*workCounts // by exec span name, plus "apply"
	UntracedUS   float64                // mean read time in untraced blocks
	TracedUS     float64                // mean read time in traced blocks
	Ops          Tally
	LoadS        float64
	MaterializeS float64
}

// matEpoch is the replay's published materialisation and its write count.
type matEpoch struct {
	mat *lincount.Materialization
	n   uint64
}

// replayer calls the layers the way the server does, on state of its
// own: its own program (so its plan cache sees the same key sequence as
// the server's), database, materialisation chain, prepared-query map
// and WAL segment.
type replayer struct {
	p        *lincount.Program
	db       *lincount.Database
	cur      atomic.Pointer[matEpoch]
	walW     *wal.Writer
	mu       sync.Mutex
	prepared map[Req]*lincount.PreparedQuery
}

// read replays read i and returns its rows and the number of writes
// they reflect. Spans go under one request root.
func (r *replayer) read(ctx context.Context, tr *Tracer, bank *term.Bank, i uint64, q Req, count func(string) *workCounts) ([][]string, uint64, error) {
	req := int64(i)
	root := tr.Begin("request", req, -1)
	defer tr.End(root)
	sp := tr.Begin("parser.ParseQuery", req, root)
	_, err := parser.ParseQuery(bank, q.Query)
	tr.End(sp)
	if err != nil {
		return nil, 0, err
	}
	if q.Strategy == "" {
		// Auto on a maintained server: the materialisation answers.
		me := r.cur.Load()
		sp = tr.Begin("incremental.Answers", req, root)
		rows, err := me.mat.Answers(q.Query)
		tr.End(sp)
		return rows, me.n, err
	}
	r.mu.Lock()
	pq := r.prepared[q]
	r.mu.Unlock()
	if pq == nil {
		st, err := lincount.ParseStrategy(q.Strategy)
		if err != nil {
			return nil, 0, err
		}
		sp = tr.Begin("plan.Prepare", req, root)
		pq, err = lincount.Prepare(r.p, q.Query, st)
		tr.End(sp)
		if err != nil {
			return nil, 0, err
		}
		r.mu.Lock()
		r.prepared[q] = pq
		r.mu.Unlock()
	}
	var progress atomic.Int64
	name := execSpan[q.Strategy]
	sp = tr.Begin(name, req, root)
	res, err := pq.EvalContext(ctx, r.db, lincount.WithMaxDerivedFacts(serverMaxFacts),
		lincount.WithRuleProfile(), lincount.WithFactProgress(&progress))
	tr.End(sp)
	if err != nil {
		return nil, 0, err
	}
	c := count(name)
	c.evals++
	c.answers += int64(len(res.Answers))
	c.inferences += res.Stats.Inferences
	c.probes += res.Stats.Probes
	c.nodes += int64(res.Stats.CountingNodes)
	return res.Answers, 0, nil
}

// write replays write n: WAL append and fsync, then maintenance, then
// publication of the new materialisation.
func (r *replayer) write(ctx context.Context, tr *Tracer, n uint64, op WriteOp, c *workCounts) error {
	req := -int64(n) - 1 // writes and reads share the id space
	var ops []lincount.WriteOp
	rec := wal.Record{Seq: n + 1}
	if op.Assert != "" {
		ops = append(ops, lincount.WriteOp{Text: op.Assert})
		rec.Ops = append(rec.Ops, wal.Op{Text: op.Assert})
	}
	if op.Retract != "" {
		ops = append(ops, lincount.WriteOp{Retract: true, Text: op.Retract})
		rec.Ops = append(rec.Ops, wal.Op{Retract: true, Text: op.Retract})
	}
	root := tr.Begin("request", req, -1)
	defer tr.End(root)
	sp := tr.Begin("wal.Append", req, root)
	err := r.walW.Append(rec)
	tr.End(sp)
	if err != nil {
		return err
	}
	sp = tr.Begin("wal.Sync", req, root)
	err = r.walW.Sync()
	tr.End(sp)
	if err != nil {
		return err
	}
	sp = tr.Begin("incremental.Apply", req, root)
	next, info, err := r.cur.Load().mat.Apply(ctx, ops)
	tr.End(sp)
	if err != nil {
		return err
	}
	r.cur.Store(&matEpoch{mat: next, n: n + 1})
	c.applies++
	c.overdeleted += int64(info.Overdeleted)
	c.rederived += int64(info.Rederived)
	c.derived += int64(info.DerivedAdded + info.DerivedRemoved)
	return nil
}

func runInProcess(ctx context.Context, w *Workload, chk *Checker, conns int, d time.Duration, scratch string) (*InProc, error) {
	writes := len(w.Groups) > 0
	epoch := time.Now()
	setup := NewTracer(epoch)
	out := &InProc{Work: map[string]*workCounts{}}

	p, err := lincount.ParseProgram(w.Program)
	if err != nil {
		return nil, err
	}
	rp := &replayer{p: p, db: lincount.NewDatabase(p), prepared: map[Req]*lincount.PreparedQuery{}}
	sp := setup.Begin("database.LoadFacts", noRequest, -1)
	err = rp.db.LoadFacts(w.EDB)
	setup.End(sp)
	if err != nil {
		return nil, err
	}
	out.LoadS = setup.Spans[sp].Dur().Seconds()
	sp = setup.Begin("incremental.Materialize", noRequest, -1)
	mat, err := p.Materialize(ctx, rp.db)
	setup.End(sp)
	if err != nil {
		return nil, err
	}
	out.MaterializeS = setup.Spans[sp].Dur().Seconds()
	rp.cur.Store(&matEpoch{mat: mat})
	if writes {
		rp.walW, err = wal.Create(filepath.Join(scratch, "replay.wal"), wal.Options{Sync: wal.SyncNever})
		if err != nil {
			return nil, err
		}
		defer rp.walW.Close()
	}

	// The server under test, configured as lincountd's defaults configure it.
	p2, err := lincount.ParseProgram(w.Program)
	if err != nil {
		return nil, err
	}
	db2 := lincount.NewDatabase(p2)
	if err := db2.LoadFacts(w.EDB); err != nil {
		return nil, err
	}
	cfg := server.Config{Program: p2, DB: db2, SlowQuery: serverSlowQuery}
	if writes {
		cfg.DataDir = filepath.Join(scratch, "inproc-data")
		cfg.WALSync = wal.SyncAlways
		cfg.CheckpointRecords = checkpointRecords
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	phase := d / 2
	tallies := make([]Tally, conns)
	tracers := make([]*Tracer, conns)
	for k := range tracers {
		tracers[k] = NewTracer(epoch)
	}

	// Phase 1: the server. Each reader alternates blocks of untraced and
	// traced reads and times whole blocks the same way, so the difference
	// is the cost of recording spans, and a change in the host's speed
	// hits both sides alike.
	const block = 32
	blockStart := make([]time.Time, conns)
	blockTime := make([][2]time.Duration, conns) // untraced, traced
	blockReads := make([][2]int, conns)
	reads := make([]int, conns)
	var srvWrites uint64 // writes srv acknowledged, in stream order
	drive(conns, writes, 0, phase, func(uint64) bool {
		op := w.Write(srvWrites)
		sp := tracers[0].Begin("server.Write", -int64(srvWrites)-1, -1)
		resp, err := srv.Write(ctx, server.WriteRequest{Assert: op.Assert, Retract: op.Retract})
		tracers[0].End(sp)
		if err != nil {
			tallies[0].fail(false, err)
			return false
		}
		if resp.Epoch != srvWrites+1 {
			tallies[0].wrong(fmt.Sprintf("in-process write %d published epoch %d", srvWrites, resp.Epoch))
			return false
		}
		srvWrites++
		tallies[0].OK++
		return true
	}, func(k int, i uint64) {
		traced := reads[k] / block % 2
		if reads[k]%block == 0 {
			blockStart[k] = time.Now()
		}
		q := w.Read(i)
		sp := int32(-1)
		if traced == 1 {
			sp = tracers[k].Begin("server.Query", int64(i), -1)
		}
		resp, err := srv.Query(ctx, server.QueryRequest{Query: q.Query, Strategy: q.Strategy})
		if traced == 1 {
			tracers[k].End(sp)
		}
		reads[k]++
		if reads[k]%block == 0 {
			blockTime[k][traced] += time.Since(blockStart[k])
			blockReads[k][traced] += block
		}
		switch {
		case err != nil:
			tallies[k].fail(false, err)
		case chk.Check(q.Query, resp.Epoch, resp.Answers):
			tallies[k].OK++
		default:
			tallies[k].wrong(fmt.Sprintf("in-process: wrong answer to %s (%s)", q.Query, q.Strategy))
		}
	})
	var bt [2]time.Duration
	var bn [2]int
	for k := range blockTime {
		for t := 0; t < 2; t++ {
			bt[t] += blockTime[k][t]
			bn[t] += blockReads[k][t]
		}
	}
	out.UntracedUS = float64(bt[0]) / 1e3 / float64(max(bn[0], 1))
	out.TracedUS = float64(bt[1]) / 1e3 / float64(max(bn[1], 1))

	// Phase 2: the layered replay.
	replay := make([]*Tracer, conns)
	banks := make([]*term.Bank, conns)
	work := make([]map[string]*workCounts, conns)
	for k := range replay {
		replay[k] = NewTracer(epoch)
		banks[k] = term.NewBank(symtab.New())
		work[k] = map[string]*workCounts{}
	}
	count := func(k int) func(string) *workCounts {
		return func(name string) *workCounts {
			if work[k][name] == nil {
				work[k][name] = &workCounts{}
			}
			return work[k][name]
		}
	}
	drive(conns, writes, 0, phase, func(n uint64) bool {
		if err := rp.write(ctx, replay[0], n, w.Write(n), count(0)("apply")); err != nil {
			tallies[0].fail(false, err)
			return false
		}
		tallies[0].OK++
		return true
	}, func(k int, i uint64) {
		q := w.Read(i)
		rows, at, err := rp.read(ctx, replay[k], banks[k], i, q, count(k))
		switch {
		case err != nil:
			tallies[k].fail(false, err)
		case chk.Check(q.Query, at, rows):
			tallies[k].OK++
		default:
			tallies[k].wrong(fmt.Sprintf("replay: wrong answer to %s (%s)", q.Query, q.Strategy))
		}
	})
	for k := 0; k < conns; k++ {
		out.Ops.add(&tallies[k])
		for name, c := range work[k] {
			if out.Work[name] == nil {
				out.Work[name] = &workCounts{}
			}
			out.Work[name].add(c)
		}
	}
	out.Spans = mergeSpans(append(append([]*Tracer{setup}, tracers...), replay...))
	return out, nil
}

// mergeSpans concatenates tracers' spans, rebasing parent indices.
func mergeSpans(trs []*Tracer) []Span {
	var out []Span
	for _, tr := range trs {
		off := int32(len(out))
		for _, s := range tr.Spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}
