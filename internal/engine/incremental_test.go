package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"lincount/internal/database"
	"lincount/internal/symtab"
)

// newTestJoiner compiles src's rules for maintenance over f's database,
// with the named predicates mutable, into a fresh derived map.
func newTestJoiner(t *testing.T, f *fixture, src string, mutable ...string) (*Joiner, map[symtab.Sym]*database.Relation) {
	t.Helper()
	mut := make(map[symtab.Sym]bool)
	for _, p := range mutable {
		mut[f.bank.Symbols().Intern(p)] = true
	}
	derived := make(map[symtab.Sym]*database.Relation)
	j, err := NewJoiner(f.bank, f.db, derived, f.program(t, src).Rules, mut, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j, derived
}

// TestJoinerWindowedCountsExactlyOnce drives the windowed counting
// fixpoint the maintainer runs — a default pass, then rounds whose delta
// is the previous round's rows — on a cyclic graph with a nonlinear rule,
// so a delta occurrence has the same predicate on both sides of it. Each
// tc tuple's derivation count must equal a brute-force count of its body
// instantiations over the final model: [e(x,y)] + |{z : tc(x,z), tc(z,y)}|.
func TestJoinerWindowedCountsExactlyOnce(t *testing.T) {
	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "a"}, {"c", "d"}, {"d", "e"}}
	var facts strings.Builder
	for _, e := range edges {
		fmt.Fprintf(&facts, "e(%s,%s). ", e[0], e[1])
	}
	f := newFixture(t, facts.String())
	j, derived := newTestJoiner(t, f, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- tc(X,Z), tc(Z,Y).", "tc")
	tcPred := f.bank.Symbols().Intern("tc")
	tc := database.NewRelation(2)
	derived[tcPred] = tc
	var counts []int64
	emit := func(t database.Tuple) error {
		if id, added := tc.InsertRow(t); added {
			counts = append(counts, 1)
		} else {
			counts[id]++
		}
		return nil
	}
	if j.Variants(0) != 0 || j.Variants(1) != 2 {
		t.Fatalf("variants = %d, %d; want 0, 2", j.Variants(0), j.Variants(1))
	}
	if err := j.Run(0, -1, nil, JoinConfig{}, emit); err != nil {
		t.Fatal(err)
	}
	for lo, round := database.RowID(0), 0; ; round++ {
		if round > 20 {
			t.Fatal("counting rounds did not converge")
		}
		hi := database.RowID(tc.Len())
		if hi == lo {
			break
		}
		delta := map[symtab.Sym]Delta{tcPred: {Rel: tc, Lo: lo, Hi: hi}}
		for occ := 0; occ < j.Variants(1); occ++ {
			n := 0
			counted := func(t database.Tuple) error { n++; return emit(t) }
			if err := j.Run(1, occ, delta, JoinConfig{Windowed: true}, counted); err != nil {
				t.Fatal(err)
			}
			// Round 0's delta is every row, so each derivation's atoms are
			// all newest and it belongs to the last occurrence: the first
			// variant's suffix side reads the empty window [0, 0).
			if round == 0 && (occ == 0) != (n == 0) {
				t.Errorf("round 0: variant %d emitted %d derivations", occ, n)
			}
		}
		lo = hi
	}

	// Brute force over the final model.
	nodes := []string{"a", "b", "c", "d", "e"}
	reach := map[[2]string]bool{}
	for _, e := range edges {
		reach[e] = true
	}
	for changed := true; changed; {
		changed = false
		for _, x := range nodes {
			for _, z := range nodes {
				for _, y := range nodes {
					if reach[[2]string{x, z}] && reach[[2]string{z, y}] && !reach[[2]string{x, y}] {
						reach[[2]string{x, y}] = true
						changed = true
					}
				}
			}
		}
	}
	if tc.Len() != len(reach) {
		t.Fatalf("tc has %d rows, want %d", tc.Len(), len(reach))
	}
	isEdge := map[[2]string]bool{}
	for _, e := range edges {
		isEdge[e] = true
	}
	for id := 0; id < tc.Len(); id++ {
		row := tc.At(id)
		xy := [2]string{f.bank.Format(row[0]), f.bank.Format(row[1])}
		if !reach[xy] {
			t.Fatalf("tc%v is not in the closure", xy)
		}
		var want int64
		if isEdge[xy] {
			want++
		}
		for _, z := range nodes {
			if reach[[2]string{xy[0], z}] && reach[[2]string{z, xy[1]}] {
				want++
			}
		}
		if counts[id] != want {
			t.Errorf("tc%v counted %d derivations, brute force %d", xy, counts[id], want)
		}
	}
}

// TestJoinerRowStateFilter checks the row-state read discipline. The
// variant's delta occurrence d sits between two occurrences of a: the
// first is on the prefix side, the second on the suffix side. In a, the
// rows ending in 1 are deleted (state -1), those ending in 2 are above
// the bound, and those ending in 3 lie past the end of the state slice,
// so they count as live. Every d row is marked deleted too, but d is the
// delta occurrence and must never be filtered.
func TestJoinerRowStateFilter(t *testing.T) {
	f := newFixture(t, `a(x,y0). a(x,y1). a(x,y2). a(z,w0). a(z,w1). a(z,w2). a(x,y3). a(z,w3).
d(y0,z). d(y1,z). d(y2,z). d(y3,z).`)
	j, _ := newTestJoiner(t, f, "h(Y,W) :- a(X,Y), d(Y,Z), a(Z,W).\ng(X,Y) :- a(X,Y).", "d")
	syms := f.bank.Symbols()
	state := map[symtab.Sym][]int32{
		syms.Intern("a"): {0, -1, 2, 0, -1, 2},
		syms.Intern("d"): {-1, -1, -1, -1},
	}
	dRel := f.db.Relation(syms.Intern("d"))
	delta := map[symtab.Sym]Delta{syms.Intern("d"): {Rel: dRel, Lo: 0, Hi: database.RowID(dRel.Len())}}
	run := func(rule, occ int, delta map[symtab.Sym]Delta, cfg JoinConfig) []string {
		t.Helper()
		var got []string
		err := j.Run(rule, occ, delta, cfg, func(t database.Tuple) error {
			got = append(got, f.bank.Format(t[0])+","+f.bank.Format(t[1]))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return got
	}
	cross := func(ys, ws []string) []string {
		var out []string
		for _, y := range ys {
			for _, w := range ws {
				out = append(out, y+","+w)
			}
		}
		sort.Strings(out)
		return out
	}
	allY := []string{"y0", "y1", "y2", "y3"}
	allW := []string{"w0", "w1", "w2", "w3"}
	liveY := []string{"y0", "y3"}
	liveW := []string{"w0", "w3"}
	cases := []struct {
		name string
		cfg  JoinConfig
		want []string
	}{
		{"unfiltered", JoinConfig{}, cross(allY, allW)},
		{"state without sides", JoinConfig{RowState: state, PrefixBound: 1, SuffixBound: 1}, cross(allY, allW)},
		{"prefix", JoinConfig{RowState: state, FilterPrefix: true, PrefixBound: 1}, cross(liveY, allW)},
		{"suffix", JoinConfig{RowState: state, FilterSuffix: true, SuffixBound: 1}, cross(allY, liveW)},
		{"both", JoinConfig{RowState: state, FilterPrefix: true, PrefixBound: 1, FilterSuffix: true, SuffixBound: 1}, cross(liveY, liveW)},
		{"bounds per side", JoinConfig{RowState: state, FilterPrefix: true, PrefixBound: 2, FilterSuffix: true, SuffixBound: 0},
			cross([]string{"y0", "y2", "y3"}, liveW)},
	}
	for _, tc := range cases {
		if got := run(0, 0, delta, tc.cfg); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	// With no delta every occurrence is on the suffix side; the lone a
	// literal is read by the unindexed scan.
	all := []string{"x,y0", "x,y1", "x,y2", "x,y3", "z,w0", "z,w1", "z,w2", "z,w3"}
	if got := run(1, -1, nil, JoinConfig{RowState: state, FilterPrefix: true, PrefixBound: 1}); fmt.Sprint(got) != fmt.Sprint(all) {
		t.Errorf("default order, prefix filter: got %v, want %v", got, all)
	}
	want := []string{"x,y0", "x,y3", "z,w0", "z,w3"}
	if got := run(1, -1, nil, JoinConfig{RowState: state, FilterSuffix: true, SuffixBound: 1}); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("default order, suffix filter: got %v, want %v", got, want)
	}
}
