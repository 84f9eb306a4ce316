package engine

import (
	"math/rand"
	"sort"
	"testing"

	"lincount/internal/database"
	"lincount/internal/symtab"
	"lincount/internal/term"
)

// formatLess is the comparator SortTuplesFormatted must agree with: both
// values rendered, integers compared numerically.
func formatLess(bank *term.Bank, a, b database.Tuple) bool {
	for k := range a {
		if a[k] == b[k] {
			continue
		}
		if a[k].IsInt() && b[k].IsInt() {
			return a[k].AsInt() < b[k].AsInt()
		}
		fa, fb := bank.Format(a[k]), bank.Format(b[k])
		if fa != fb {
			return fa < fb
		}
	}
	return false
}

// TestSortTuplesFormattedMatchesFormat: on random tuples mixing integers,
// symbols (some spelled like integers, so mixed kinds can render equal),
// compounds and lists, SortTuplesFormatted produces exactly the order of
// the rendering comparator.
func TestSortTuplesFormattedMatchesFormat(t *testing.T) {
	bank := term.NewBank(symtab.New())
	syms := bank.Symbols()
	names := []string{"a", "b", "ab", "B", "z", "1", "10", "-3", "f", "[]", "n3_7_1", "n3_10_0"}
	rng := rand.New(rand.NewSource(1))
	var value func(depth int) term.Value
	value = func(depth int) term.Value {
		switch k := rng.Intn(6); {
		case k < 2:
			return term.Int(int64(rng.Intn(25) - 12))
		case k < 4 || depth > 1:
			return term.Symbol(syms.Intern(names[rng.Intn(len(names))]))
		case k == 4:
			args := make([]term.Value, 1+rng.Intn(2))
			for i := range args {
				args[i] = value(depth + 1)
			}
			return bank.Compound(syms.Intern(names[rng.Intn(3)]), args...)
		default:
			elems := make([]term.Value, rng.Intn(3))
			for i := range elems {
				elems[i] = value(depth + 1)
			}
			return bank.List(elems...)
		}
	}
	for trial := 0; trial < 500; trial++ {
		arity := 1 + rng.Intn(3)
		ts := make([]database.Tuple, rng.Intn(40))
		for i := range ts {
			ts[i] = make(database.Tuple, arity)
			for j := range ts[i] {
				ts[i][j] = value(0)
			}
		}
		want := append([]database.Tuple(nil), ts...)
		sort.Slice(want, func(i, j int) bool { return formatLess(bank, want[i], want[j]) })
		SortTuplesFormatted(bank, ts)
		for i := range ts {
			if !ts[i].Equal(want[i]) {
				t.Fatalf("trial %d: position %d: got %v, want %v", trial, i, ts, want)
			}
		}
	}
}
