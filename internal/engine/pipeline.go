package engine

// Batched, streaming join execution — the engine's one join kernel. Each
// rule body ordering becomes a pipeline of streaming operators, one per
// literal, connected by fixed-capacity batches of binding frames. The
// source operator consumes the delta as a RowID range; every relation
// operator instantiates the probe keys for a whole input batch, resolves
// them in one ProbeRangeBatch against a cached, pre-sized index handle,
// and extends the surviving frames; builtins and negations are batch
// filters; the sink instantiates head tuples.
//
// Every relation the pipeline reads is resolved to a RowID window by
// begin() before the run starts, so rows appended during the run (the
// head relation's own growth, or a callback sink's inserts) are never
// observed by it. begin() also resolves the incremental engine's two
// read disciplines (JoinConfig): the windowed exact-once counting rule
// and the row-state filter.
//
// The sink is either the head relation (nil sink: deduplicating insert
// with derived-fact accounting) or a caller callback that receives every
// body solution's head tuple without deduplication (Joiner.Run,
// PreparedSolve.Solve). The callback travels as a parameter through
// run → feed → push → emitHead and is never stored in ruleExec: in a
// field it would escape, moving every caller's closure (and whatever it
// captures) to the heap.
//
// Each operator preserves its input order and expands matches in
// ascending RowID order, so solutions reach the sink in the same order a
// row-at-a-time depth-first join would produce them (see
// docs/INTERNALS.md § Batched execution pipeline).

import (
	"lincount/internal/ast"
	"lincount/internal/database"
	"lincount/internal/faultinject"
	"lincount/internal/limits"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// batchFrames is the operator batch size: how many binding frames a
// level buffers before pushing them downstream. Large enough to amortize
// per-batch costs, small enough to stay cache-resident.
const batchFrames = 256

// Integer bounds of the 62-bit term.Value encoding: at the boundary succ
// simply fails instead of overflowing.
const (
	succMaxInt = 1<<61 - 1
	succMinInt = -(1 << 61)
)

// headSink receives one body solution's head tuple. The tuple is reused
// across solutions; a sink must copy it to retain it.
type headSink func(database.Tuple) error

// execLevel is the runtime state of one pipeline operator: the per-run
// source resolution (relation, RowID window, index handle) and the
// reusable batch buffers.
type execLevel struct {
	// Resolved by begin() each run.
	rel    *database.Relation
	lo, hi database.RowID
	// state/stateBound are the row-state filter armed for this occurrence
	// (JoinConfig.RowState): a row with id < len(state) is skipped unless
	// 0 ≤ state[id] ≤ stateBound. nil state disables the filter.
	state      []int32
	stateBound int32
	// Index handle cache, revalidated by relation identity.
	ixRel *database.Relation
	ix    database.Index
	// checkArgs lists the argument positions not covered by probeMask —
	// the ones a matched row must still be unified on (masked positions
	// are equal by index construction and are skipped).
	checkArgs []int
	// probeArgs lists the argument positions covered by probeMask, in
	// ascending order (the key column order). When every one of them is
	// a plain variable, probeSlots holds their frame slots and the key
	// loop skips pattern dispatch entirely.
	probeArgs  []int
	probeSlots []int
	// out buffers this operator's output frames (batchFrames × nslots).
	out  []term.Value
	outN int
	// keys holds the batch's probe keys (relation ops) or one negation
	// probe tuple; matches is the ProbeRangeBatch result buffer.
	keys    []term.Value
	matches []database.RowMatch
}

// ruleExec is the per-evaluation execution state of one rule variant's
// pipeline. It is reused across fixpoint iterations (buffers amortized)
// and owned by exactly one goroutine.
type ruleExec struct {
	ev           *evaluator
	cr           *compiledRule
	deltaOcc     int
	order        []compiledLit
	deltaBodyIdx int
	nslots       int
	levels       []execLevel
	frame0       []term.Value
	headTup      []term.Value
	// headRel/grew are the nil-sink destination: head tuples insert
	// straight into the head relation with derived-fact accounting; read
	// windows were snapshotted by begin(), so mid-run growth is never
	// observed.
	headRel *database.Relation
	grew    *bool
	// empty marks a run whose source or some relation literal resolved
	// to an empty window: no output is possible.
	empty bool
}

func newRuleExec(ev *evaluator, cr *compiledRule, deltaOcc int) *ruleExec {
	order, dbi := cr.orderFor(deltaOcc)
	re := &ruleExec{
		ev:           ev,
		cr:           cr,
		deltaOcc:     deltaOcc,
		order:        order,
		deltaBodyIdx: dbi,
		nslots:       cr.nslots,
		levels:       make([]execLevel, len(order)),
		frame0:       make([]term.Value, cr.nslots),
		headTup:      make([]term.Value, len(cr.head)),
	}
	for i := range order {
		cl := &order[i]
		lv := &re.levels[i]
		lv.out = make([]term.Value, batchFrames*cr.nslots)
		switch cl.kind {
		case litRelation:
			varsOnly := true
			for j := range cl.args {
				if cl.probeMask&(1<<uint(j)) == 0 {
					lv.checkArgs = append(lv.checkArgs, j)
					continue
				}
				lv.probeArgs = append(lv.probeArgs, j)
				if cl.args[j].kind != ast.Var {
					varsOnly = false
				}
			}
			if varsOnly {
				for _, j := range lv.probeArgs {
					lv.probeSlots = append(lv.probeSlots, cl.args[j].slot)
				}
			}
			lv.keys = make([]term.Value, 0, batchFrames*database.KeyWidth(cl.probeMask))
		case litNegated:
			lv.keys = make([]term.Value, len(cl.args))
		}
	}
	return re
}

// execFor returns (creating if needed) the cached pipeline state for one
// rule variant of this evaluator.
func (ev *evaluator) execFor(cr *compiledRule, deltaOcc int) *ruleExec {
	if ev.execs == nil {
		ev.execs = make(map[*compiledRule][]*ruleExec)
	}
	slots := ev.execs[cr]
	if slots == nil {
		slots = make([]*ruleExec, len(cr.deltaOrders)+1)
		ev.execs[cr] = slots
	}
	k := deltaOcc + 1
	if k < 0 || k >= len(slots) {
		k = 0
	}
	if slots[k] == nil {
		slots[k] = newRuleExec(ev, cr, deltaOcc)
	}
	return slots[k]
}

// begin resolves every operator's source for one run: the delta literal
// gets its RowID window, other relation literals read their full (frozen)
// relation, and probe levels revalidate their cached index handle. cfg,
// when non-nil, applies the incremental engine's read disciplines to the
// non-delta occurrences; a side is "prefix" when it precedes the delta
// occurrence in source-body order (with no delta, every occurrence is
// suffix).
func (re *ruleExec) begin(delta map[symtab.Sym]deltaView, cfg *JoinConfig) {
	ev := re.ev
	re.empty = false
	for i := range re.order {
		cl := &re.order[i]
		lv := &re.levels[i]
		lv.outN = 0
		switch cl.kind {
		case litRelation:
			lv.state = nil
			if re.deltaBodyIdx >= 0 && cl.bodyIdx == re.deltaBodyIdx {
				dv := delta[cl.pred]
				lv.rel, lv.lo, lv.hi = dv.rel, dv.lo, dv.hi
			} else {
				lv.rel, lv.lo, lv.hi = ev.readRel(cl.pred), 0, 0
				if lv.rel != nil {
					lv.hi = database.RowID(lv.rel.Len())
				}
				if cfg != nil {
					re.applyConfig(cl, lv, delta, cfg)
				}
			}
			if lv.rel == nil || lv.hi <= lv.lo || lv.rel.Arity() != len(cl.args) {
				re.empty = true
				continue
			}
			if cl.probeMask != 0 && lv.ixRel != lv.rel {
				lv.ix = lv.rel.IndexFor(cl.probeMask, cl.expect)
				lv.ixRel = lv.rel
			}
		case litNegated:
			lv.rel = ev.readRel(cl.pred)
			if lv.rel != nil && lv.rel.Arity() != len(cl.args) {
				lv.rel = nil // arity mismatch: membership is impossible
			}
		}
	}
}

// applyConfig arms the read disciplines of cfg on one non-delta relation
// occurrence. Windowed: an occurrence of a predicate present in the delta
// map reads rows [0, hi) of the delta's relation on the prefix side and
// [0, lo) on the suffix side, so each derivation of a round is enumerated
// exactly once, at its last newest-atom position. Row state: the side's
// filter is armed when the predicate has a state slice.
func (re *ruleExec) applyConfig(cl *compiledLit, lv *execLevel, delta map[symtab.Sym]deltaView, cfg *JoinConfig) {
	prefix := cl.bodyIdx < re.deltaBodyIdx
	if cfg.Windowed {
		if wv, ok := delta[cl.pred]; ok {
			lv.rel, lv.lo, lv.hi = wv.rel, 0, wv.lo
			if prefix {
				lv.hi = wv.hi
			}
		}
	}
	if (prefix && cfg.FilterPrefix) || (!prefix && cfg.FilterSuffix) {
		if s, ok := cfg.RowState[cl.pred]; ok {
			lv.state = s
			lv.stateBound = cfg.SuffixBound
			if prefix {
				lv.stateBound = cfg.PrefixBound
			}
		}
	}
}

// skip reports whether the row-state filter drops row id. Rows past the
// end of the state slice (appended after it was captured) count as live.
func (lv *execLevel) skip(id database.RowID) bool {
	if int(id) >= len(lv.state) {
		return false
	}
	s := lv.state[id]
	return s < 0 || s > lv.stateBound
}

// run drives the pipeline: one all-unbound frame enters level 0, full
// batches stream down eagerly, and drain pushes the partials through.
// sink is the run's destination (nil: insert into the head relation).
func (re *ruleExec) run(sink headSink) error {
	if re.empty {
		return nil
	}
	for i := range re.frame0 {
		re.frame0[i] = noValue
	}
	if err := re.feed(0, re.frame0, 1, sink); err != nil {
		return err
	}
	return re.drain(sink)
}

// drain flushes every level's partial output batch downstream, in level
// order (a flush of level i appends to level i+1's partial, which the
// loop visits next).
func (re *ruleExec) drain(sink headSink) error {
	for i := range re.levels {
		lv := &re.levels[i]
		if lv.outN > 0 {
			n := lv.outN
			lv.outN = 0
			if err := re.feed(i+1, lv.out, n, sink); err != nil {
				return err
			}
		}
	}
	return nil
}

// push forwards level i's output batch downstream when it is full.
func (re *ruleExec) push(i int, sink headSink) error {
	lv := &re.levels[i]
	if lv.outN < batchFrames {
		return nil
	}
	lv.outN = 0
	return re.feed(i+1, lv.out, batchFrames, sink)
}

// feed runs operator i over a batch of n input frames. Frames are flat:
// frame k occupies frames[k*nslots : (k+1)*nslots]. Operators copy each
// surviving frame into their own output batch, so bindings never need a
// trail — a failed extension is simply not committed.
func (re *ruleExec) feed(i int, frames []term.Value, n int, sink headSink) error {
	if n == 0 {
		return nil
	}
	if i == len(re.order) {
		return re.emitHead(frames, n, sink)
	}
	ev := re.ev
	cl := &re.order[i]
	lv := &re.levels[i]
	ns := re.nslots
	switch cl.kind {
	case litBuiltin:
		for k := 0; k < n; k++ {
			out := lv.out[lv.outN*ns : (lv.outN+1)*ns]
			copy(out, frames[k*ns:(k+1)*ns])
			if ev.builtinFrame(cl, out) {
				lv.outN++
				if err := re.push(i, sink); err != nil {
					return err
				}
			}
		}
	case litNegated:
		for k := 0; k < n; k++ {
			in := frames[k*ns : (k+1)*ns]
			for j, a := range cl.args {
				lv.keys[j] = ev.instantiate(a, in)
			}
			if lv.rel != nil && lv.rel.Contains(database.Tuple(lv.keys)) {
				continue
			}
			out := lv.out[lv.outN*ns : (lv.outN+1)*ns]
			copy(out, in)
			lv.outN++
			if err := re.push(i, sink); err != nil {
				return err
			}
		}
	default: // litRelation
		if cl.probeMask != 0 {
			// Instantiate the whole batch's probe keys, resolve them in
			// one batched probe, then unify the unmasked columns. The
			// accounting is batch-at-a-time: one Probes/TickN update for
			// the n probes (the fault injector, when armed, still sees
			// one Hit per probe so chaos schedules keep their cadence).
			ev.stats.Probes += int64(n)
			if err := ev.check.TickN(n); err != nil {
				return err
			}
			if ev.inject != nil {
				for k := 0; k < n; k++ {
					if err := ev.inject.Hit(faultinject.SiteEngineProbe); err != nil {
						return err
					}
				}
			}
			keys := lv.keys[:0]
			if len(lv.probeSlots) == 1 {
				s := lv.probeSlots[0]
				for k := 0; k < n; k++ {
					keys = append(keys, frames[k*ns+s])
				}
			} else if lv.probeSlots != nil {
				for k := 0; k < n; k++ {
					in := frames[k*ns : (k+1)*ns]
					for _, s := range lv.probeSlots {
						keys = append(keys, in[s])
					}
				}
			} else {
				for k := 0; k < n; k++ {
					in := frames[k*ns : (k+1)*ns]
					for _, j := range lv.probeArgs {
						if a := cl.args[j]; a.kind == ast.Var {
							keys = append(keys, in[a.slot])
						} else {
							keys = append(keys, ev.instantiate(a, in))
						}
					}
				}
			}
			lv.keys = keys
			lv.matches = lv.ix.ProbeRangeBatch(n, keys, lv.lo, lv.hi, lv.matches[:0])
			for _, m := range lv.matches {
				if lv.skip(m.Row) {
					continue
				}
				out := lv.out[lv.outN*ns : (lv.outN+1)*ns]
				copy(out, frames[int(m.Key)*ns:(int(m.Key)+1)*ns])
				row := lv.rel.Row(m.Row)
				ok := true
				for _, j := range lv.checkArgs {
					// Inline bind-or-compare for plain variables (the
					// common case); compounds fall back to matchFrame.
					if p := cl.args[j]; p.kind == ast.Var {
						if w := out[p.slot]; w == noValue {
							out[p.slot] = row[j]
						} else if w != row[j] {
							ok = false
							break
						}
					} else if !ev.matchFrame(p, row[j], out) {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				lv.outN++
				if err := re.push(i, sink); err != nil {
					return err
				}
			}
		} else {
			// Unindexed source: nested scan of the window per input frame.
			ev.stats.Probes += int64(n)
			if err := ev.check.TickN(n); err != nil {
				return err
			}
			for k := 0; k < n; k++ {
				in := frames[k*ns : (k+1)*ns]
				if ev.inject != nil {
					if err := ev.inject.Hit(faultinject.SiteEngineProbe); err != nil {
						return err
					}
				}
				for id := lv.lo; id < lv.hi; id++ {
					if lv.skip(id) {
						continue
					}
					out := lv.out[lv.outN*ns : (lv.outN+1)*ns]
					copy(out, in)
					row := lv.rel.Row(id)
					ok := true
					for _, j := range lv.checkArgs {
						if !ev.matchFrame(cl.args[j], row[j], out) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					lv.outN++
					if err := re.push(i, sink); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// emitHead instantiates the head for every solution frame and hands the
// tuple to the run's sink: a non-nil callback receives every solution
// (no deduplication), a nil sink inserts into the head relation.
func (re *ruleExec) emitHead(frames []term.Value, n int, sink headSink) error {
	ev := re.ev
	ns := re.nslots
	ev.stats.Inferences += int64(n)
	if err := ev.check.TickN(n); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		f := frames[k*ns : (k+1)*ns]
		for j, hp := range re.cr.head {
			switch hp.kind {
			case ast.Var:
				re.headTup[j] = f[hp.slot]
			case ast.Const:
				re.headTup[j] = hp.val
			default:
				re.headTup[j] = ev.instantiate(hp, f)
			}
		}
		if sink != nil {
			if err := sink(database.Tuple(re.headTup)); err != nil {
				return err
			}
			continue
		}
		if re.headRel.Insert(database.Tuple(re.headTup)) {
			ev.stats.DerivedFacts++
			if err := ev.inject.Hit(faultinject.SiteEngineInsert); err != nil {
				return err
			}
			if n := ev.countFact(); n > ev.maxFacts {
				return ev.limitErr(limits.KindFacts, n, ev.maxFacts)
			}
			if re.grew != nil {
				*re.grew = true
			}
		}
	}
	return nil
}

// matchFrame unifies a pattern with a ground value, binding directly into
// the frame. No trail: batched frames are copies, so a failed match's
// partial bindings die with the discarded frame.
func (ev *evaluator) matchFrame(p pat, v term.Value, frame []term.Value) bool {
	switch p.kind {
	case ast.Const:
		return p.val == v
	case ast.Var:
		if frame[p.slot] != noValue {
			return frame[p.slot] == v
		}
		frame[p.slot] = v
		return true
	default:
		if !v.IsCompound() {
			return false
		}
		c := ev.bank.Deref(v)
		if c.Functor != p.functor || len(c.Args) != len(p.args) {
			return false
		}
		for j, a := range p.args {
			if !ev.matchFrame(a, c.Args[j], frame) {
				return false
			}
		}
		return true
	}
}

// builtinFrame evaluates a builtin against (and binds into) an owned frame
// copy; a bound variable side is at most a plain variable by the ordering
// precondition.
func (ev *evaluator) builtinFrame(cl *compiledLit, frame []term.Value) bool {
	x, y := cl.args[0], cl.args[1]
	gx, gy := x.groundIn(frame), y.groundIn(frame)
	bind := func(p pat, v term.Value) bool {
		if frame[p.slot] != noValue {
			return frame[p.slot] == v
		}
		frame[p.slot] = v
		return true
	}
	switch cl.op {
	case opEq:
		switch {
		case gx && gy:
			return ev.instantiate(x, frame) == ev.instantiate(y, frame)
		case gx:
			// The unbound side is a plain variable by the ordering
			// precondition.
			return bind(y, ev.instantiate(x, frame))
		default:
			return bind(x, ev.instantiate(y, frame))
		}
	case opSucc:
		switch {
		case gx && gy:
			a, b := ev.instantiate(x, frame), ev.instantiate(y, frame)
			return a.IsInt() && b.IsInt() && a.AsInt() < succMaxInt && b.AsInt() == a.AsInt()+1
		case gx:
			a := ev.instantiate(x, frame)
			if !a.IsInt() || a.AsInt() >= succMaxInt {
				return false
			}
			return bind(y, term.Int(a.AsInt()+1))
		default:
			b := ev.instantiate(y, frame)
			if !b.IsInt() || b.AsInt() <= succMinInt {
				return false
			}
			return bind(x, term.Int(b.AsInt()-1))
		}
	default:
		a, b := ev.instantiate(x, frame), ev.instantiate(y, frame)
		var c int
		if a.IsInt() && b.IsInt() {
			switch {
			case a.AsInt() < b.AsInt():
				c = -1
			case a.AsInt() > b.AsInt():
				c = 1
			}
		} else {
			c = term.Compare(a, b)
		}
		switch cl.op {
		case opNeq:
			return c != 0
		case opLt:
			return c < 0
		case opLe:
			return c <= 0
		case opGt:
			return c > 0
		case opGe:
			return c >= 0
		}
		return false
	}
}

// runRuleBatched evaluates one rule variant through the pipeline into
// its head relation.
func (ev *evaluator) runRuleBatched(cr *compiledRule, deltaOcc int, delta map[symtab.Sym]deltaView, grew *bool) error {
	re := ev.execFor(cr, deltaOcc)
	re.begin(delta, nil)
	re.headRel = ev.derived[cr.headPred]
	re.grew = grew
	return re.run(nil)
}
