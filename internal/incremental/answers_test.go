package incremental

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lincount/internal/ast"
	"lincount/internal/database"
)

// indexedGoals covers every binding pattern of tc (ff, bf, fb, bb, with
// hits and misses), repeated variables, ground and non-ground compound
// arguments, integers, a pure-EDB goal answered from the base database,
// an unknown predicate and an arity mismatch.
var indexedGoals = []string{
	"?- tc(X,Y).",
	"?- tc(a,Y).", "?- tc(f(1),Y).", "?- tc(zz,Y).", "?- tc(3,Y).",
	"?- tc(X,d).", "?- tc(X,f(1)).", "?- tc(X,3).", "?- tc(X,zz).",
	"?- tc(a,d).", "?- tc(a,zz).", "?- tc(d,d).",
	"?- tc(X,X).", "?- tc(a,a).",
	"?- tc(X,f(Z)).", "?- tc(f(Z),Y).", "?- tc(f(Z),f(Z)).",
	"?- e(X,Y).", "?- e(b,Y).", "?- e(X,f(1)).", "?- e(X,X).",
	"?- nope(X,Y).", "?- nope(a,Y).",
	"?- tc(a).", "?- tc(a,b,c).",
}

const indexedProg = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n"

// TestMaterializedAnswersIndexed: materialised reads, which probe the
// goal's constant columns, answer exactly what a from-scratch evaluation
// scanned by engine.Answers does, in the same order — on the initial
// materialisation and after insert batches (indexes carried by
// CloneForAppend), deletion batches (indexes remapped by RebuildWithout)
// and a mixed batch. Each epoch is read twice, so both the read that
// builds an index and later ones that reuse it are checked.
func TestMaterializedAnswersIndexed(t *testing.T) {
	f := newFixture(t, indexedProg,
		"e(a,b). e(b,f(1)). e(f(1),c). e(c,a). e(c,d). e(d,d). e(d,3). e(3,f(2)).")
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ {
			for _, g := range indexedGoals {
				q := f.query(t, g)
				got := m.Answers(q)
				want := oracleAnswers(t, f, m.Database(), q)
				if !sameTuples(got, want) {
					t.Fatalf("%s, pass %d: %s:\n got %v\nwant %v", stage, pass, g, got, want)
				}
			}
		}
	}
	check("initial")
	batches := []struct {
		name string
		ops  []Op
	}{
		{"insert", []Op{{Text: "e(zz,a). e(f(2),x). e(x,f(1))."}}},
		{"insert again", []Op{{Text: "e(y,y). e(y,3)."}}},
		{"delete", []Op{{Retract: true, Text: "e(c,a). e(y,y)."}}},
		{"delete cycle", []Op{{Retract: true, Text: "e(d,d). e(x,f(1))."}}},
		{"mixed", []Op{
			{Retract: true, Text: "e(b,f(1))."},
			{Text: "e(b,f(1)). e(d,zz). e(d,d)."},
			{Retract: true, Text: "e(zz,a)."},
		}},
	}
	for _, b := range batches {
		m, _ = apply(t, m, b.ops)
		check("after " + b.name)
	}
	if err := m.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMaterializedAnswersConcurrentReaders: bound-goal readers on both
// columns hit published epochs while the writer applies toggles, so
// index construction on a published relation runs concurrently with
// reads of it and with the writer cloning it. Run under -race (make
// check). Every read must match the answers of its epoch's state.
func TestMaterializedAnswersConcurrentReaders(t *testing.T) {
	var facts strings.Builder
	const chains, length = 4, 12
	for c := 0; c < chains; c++ {
		for i := 0; i < length; i++ {
			fmt.Fprintf(&facts, "e(n%d_%d,n%d_%d).\n", c, i, c, i+1)
		}
	}
	f := newFixture(t, indexedProg, facts.String())
	m, err := New(context.Background(), f.prog, f.db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The toggle cuts chain 0 in the middle and closes chain 1 into a
	// cycle; even epochs hold the original EDB, odd epochs the toggled one.
	cut := Op{Retract: true, Text: "e(n0_6,n0_7)."}
	link := Op{Text: "e(n1_12,n1_0)."}
	toggle := []Op{cut, link}
	untoggle := []Op{{Text: cut.Text}, {Retract: true, Text: link.Text}}

	var goals []string
	for c := 0; c < 2; c++ {
		for _, i := range []int{0, 6, 7, 12} {
			goals = append(goals,
				fmt.Sprintf("?- tc(n%d_%d,Y).", c, i),
				fmt.Sprintf("?- tc(X,n%d_%d).", c, i))
		}
	}
	want := make([]map[string][]database.Tuple, 2)
	state := m
	for parity := range want {
		want[parity] = make(map[string][]database.Tuple)
		for _, g := range goals {
			want[parity][g] = oracleAnswers(t, f, state.Database(), f.query(t, g))
		}
		state, _ = apply(t, state, toggle)
	}
	queries := make(map[string]ast.Query, len(goals))
	for _, g := range goals {
		queries[g] = f.query(t, g)
	}

	type epoch struct {
		m *Materialization
		n int
	}
	var cur atomic.Pointer[epoch]
	cur.Store(&epoch{m: m})
	var done atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				// Reader r sticks to one column: even readers bind the
				// first argument, odd readers the second.
				g := goals[(2*i+r)%len(goals)]
				e := cur.Load()
				got := e.m.Answers(queries[g])
				if w := want[e.n%2][g]; !sameTuples(got, w) {
					errs <- fmt.Errorf("epoch %d: %s: got %v, want %v", e.n, g, got, w)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	for n := 1; n <= 200; n++ {
		ops := toggle
		if n%2 == 0 {
			ops = untoggle
		}
		prev := cur.Load().m
		next, _, err := prev.Apply(context.Background(), prev.Database().Fork(), ops)
		if err != nil {
			done.Store(true)
			wg.Wait()
			t.Fatalf("apply %d: %v", n, err)
		}
		cur.Store(&epoch{m: next, n: n})
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if reads.Load() == 0 {
		t.Error("no read overlapped the writer")
	}
}
