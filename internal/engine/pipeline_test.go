package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lincount/internal/database"
	"lincount/internal/term"
)

// relStrings renders a relation's rows in RowID order.
func relStrings(bank *term.Bank, r *database.Relation) []string {
	if r == nil {
		return nil
	}
	out := make([]string, 0, r.Len())
	for id := database.RowID(0); int(id) < r.Len(); id++ {
		row := r.Row(id)
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = bank.Format(v)
		}
		out = append(out, strings.Join(parts, ","))
	}
	return out
}

// TestBatchedMatchesLegacy checks the pipeline's fixpoint over a spread
// of rule shapes against expected rows written out here — the fixpoints
// the retired tuple-at-a-time join computed, each small enough to verify
// by hand. Relations are compared as sets: derivations may interleave
// differently across iterations.
func TestBatchedMatchesLegacy(t *testing.T) {
	cases := []struct {
		name    string
		facts   string
		src     string
		want    map[string][]string
		derived int64
	}{
		{
			name:  "linear tc",
			facts: "e(a,b). e(b,c). e(c,d). e(d,a).",
			src:   "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).",
			want: map[string][]string{"tc": {
				"a,a", "a,b", "a,c", "a,d", "b,a", "b,b", "b,c", "b,d",
				"c,a", "c,b", "c,c", "c,d", "d,a", "d,b", "d,c", "d,d"}},
			derived: 16,
		},
		{
			name:  "nonlinear tc",
			facts: "e(a,b). e(b,c). e(c,d). e(d,e). e(e,f).",
			src:   "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).",
			want: map[string][]string{"tc": {
				"a,b", "a,c", "a,d", "a,e", "a,f", "b,c", "b,d", "b,e",
				"b,f", "c,d", "c,e", "c,f", "d,e", "d,f", "e,f"}},
			derived: 15,
		},
		{
			name: "same generation",
			facts: `up(d,b). up(e,b). up(b,a). up(c,a).
flat(a,a). flat(b,c). flat(c,b).
down(a,a). down(b,d). down(c,e).`,
			src: "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).",
			want: map[string][]string{"sg": {
				"a,a", "b,a", "b,c", "c,a", "c,b", "d,a", "d,e", "e,a", "e,e"}},
			derived: 9,
		},
		{
			name:  "builtins",
			facts: "n(1). n(2). n(3). n(4).",
			src:   "lt(X,Y) :- n(X), n(Y), X < Y.\nnx(X,Y) :- n(X), succ(X,Y).\nsame(X,Y) :- n(X), n(Y), X = Y.",
			want: map[string][]string{
				"lt":   {"1,2", "1,3", "1,4", "2,3", "2,4", "3,4"},
				"nx":   {"1,2", "2,3", "3,4", "4,5"},
				"same": {"1,1", "2,2", "3,3", "4,4"},
			},
			derived: 14,
		},
		{
			name:  "negation",
			facts: "node(a). node(b). node(c). e(a,b).",
			src:   "reach(X) :- e(_,X).\nunreach(X) :- node(X), not reach(X).",
			want: map[string][]string{
				"reach":   {"b"},
				"unreach": {"a", "c"},
			},
			derived: 3,
		},
		{
			name:  "compound heads",
			facts: "edge(a,b). edge(b,c). edge(c,d).",
			src:   "path(X,Y,step(X,Y)) :- edge(X,Y).\npath(X,Y,via(Z,P)) :- edge(X,Z), path(Z,Y,P).",
			want: map[string][]string{"path": {
				"a,b,step(a,b)", "a,c,via(b,step(b,c))", "a,d,via(b,via(c,step(c,d)))",
				"b,c,step(b,c)", "b,d,via(c,step(c,d))", "c,d,step(c,d)"}},
			derived: 6,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, tc.facts)
			res := eval(t, f, tc.src, Options{})
			for p, want := range tc.want {
				got := relStrings(f.bank, res.Relation(f.bank.Symbols().Intern(p)))
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s: got %v, want %v", p, got, want)
				}
			}
			if res.Stats.DerivedFacts != tc.derived {
				t.Errorf("DerivedFacts %d, want %d", res.Stats.DerivedFacts, tc.derived)
			}
		})
	}
}

const tcSrc = "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y)."

// TestBatchedDeltaWindows pins the semi-naive contract: the recursive
// rule's work must scale with the delta, not with the accumulated
// relation (the watermark-window regression guard). On chain(40) each tc
// tuple is derived exactly once; re-reading full relations instead of
// delta windows would make the counts quadratically larger.
func TestBatchedDeltaWindows(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "e(n%d, n%d).\n", i, i+1)
	}
	f := newFixture(t, sb.String())
	st := eval(t, f, tcSrc, Options{}).Stats
	if st.Inferences != 859 || st.DerivedFacts != 820 || st.Probes != 901 {
		t.Errorf("chain(40): Inferences %d DerivedFacts %d Probes %d, want 859, 820, 901",
			st.Inferences, st.DerivedFacts, st.Probes)
	}
}

// TestScratchIsolation (satellite: shared-state removal) checks that two
// evaluators compiled from one plan never share join scratch: compiled
// rules are stateless, so concurrent evaluations over the same program
// must not interfere. Run with -race.
func TestScratchIsolation(t *testing.T) {
	f := newFixture(t, "e(a,b). e(b,c). e(c,d).")
	p := f.program(t, tcSrc)
	done := make(chan []string, 8)
	for g := 0; g < 8; g++ {
		go func() {
			res, err := Eval(p, f.db, Options{})
			if err != nil {
				done <- []string{"err: " + err.Error()}
				return
			}
			done <- relStrings(f.bank, res.Relation(f.bank.Symbols().Intern("tc")))
		}()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		if got := <-done; fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("goroutine result %v != %v", got, first)
		}
	}
}
