package main

// Answer checking. Expected rows come from the repository's reference
// strategy, semi-naive evaluation, run in-process on the workload's open
// query (?- sg(X,Y). / ?- tc(X,Y).) and selected per goal. Every
// response is compared with its rows sorted.

import (
	"fmt"
	"sort"
	"strings"

	"lincount"
)

// canonical renders rows as one comparable string, order-independent.
func canonical(rows [][]string) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	return strings.Join(keys, "\x1e")
}

// goalArgs splits "?- p(a,Y)." into its argument texts.
func goalArgs(goal string) ([]string, error) {
	open, close := strings.IndexByte(goal, '('), strings.LastIndexByte(goal, ')')
	if open < 0 || close < open {
		return nil, fmt.Errorf("malformed goal %q", goal)
	}
	return strings.Split(goal[open+1:close], ","), nil
}

func isVar(arg string) bool { return arg != "" && (arg[0] == '_' || arg[0] >= 'A' && arg[0] <= 'Z') }

// semiNaive evaluates open over edb with the reference strategy and
// returns, for each goal, the canonical expected answer.
func semiNaive(program, edb, open string, goals []Req) (map[string]string, error) {
	p, err := lincount.ParseProgram(program)
	if err != nil {
		return nil, err
	}
	db := lincount.NewDatabase(p)
	if err := db.LoadFacts(edb); err != nil {
		return nil, err
	}
	res, err := lincount.Eval(p, db, open, lincount.SemiNaive)
	if err != nil {
		return nil, fmt.Errorf("semi-naive oracle: %w", err)
	}
	// Index the open query's rows by (position, value).
	idx := map[string][][]string{}
	for _, r := range res.Answers {
		for pos, v := range r {
			k := fmt.Sprint(pos, "\x00", v)
			idx[k] = append(idx[k], r)
		}
	}
	out := make(map[string]string, len(goals))
	for _, g := range goals {
		if _, done := out[g.Query]; done {
			continue
		}
		args, err := goalArgs(g.Query)
		if err != nil {
			return nil, err
		}
		var rows [][]string
		bound := false
		for pos, a := range args {
			if !isVar(a) {
				if bound {
					return nil, fmt.Errorf("goal %q binds more than one argument", g.Query)
				}
				bound, rows = true, idx[fmt.Sprint(pos, "\x00", a)]
			}
		}
		if !bound {
			rows = res.Answers
		}
		out[g.Query] = canonical(rows)
	}
	return out, nil
}

// Checker knows the expected answer of every goal at every epoch.
type Checker struct {
	base map[string]string
	// For tc-mixed: the writer's band changes with every write, so its
	// goals are checked against the state after `epoch` writes (every
	// server starts from a fresh data directory at epoch 0, and each
	// write publishes one epoch). The EDB cycles with period len(states);
	// bands are disjoint, so a goal in the band depends only on the
	// band's own edges.
	band   string // node-name prefix of the written band, "n<b>_"
	states []map[string]string
}

// NewChecker computes the expected answers for w's read key space.
func NewChecker(w *Workload) (*Checker, error) {
	base, err := semiNaive(w.Program, w.EDB, w.Oracle, w.Goals)
	if err != nil {
		return nil, err
	}
	c := &Checker{base: base}
	if len(w.Groups) == 0 {
		return c, nil
	}
	// Every group lies in one band: "e(n<b>_...".
	c.band = w.Groups[0][len("e(") : strings.IndexByte(w.Groups[0], '_')+1]
	var bandGoals []Req
	for _, g := range w.Goals {
		if c.inBand(g.Query) {
			bandGoals = append(bandGoals, g)
		}
	}
	for n := 0; n < 2*len(w.Groups); n++ {
		var edb strings.Builder
		for _, line := range strings.Split(w.EDBAfter(uint64(n)), "\n") {
			if strings.HasPrefix(line, "e("+c.band) {
				edb.WriteString(line)
				edb.WriteByte('\n')
			}
		}
		st, err := semiNaive(w.Program, edb.String(), w.Oracle, bandGoals)
		if err != nil {
			return nil, err
		}
		c.states = append(c.states, st)
	}
	return c, nil
}

// inBand reports whether goal names a node of the written band.
func (c *Checker) inBand(goal string) bool {
	return strings.Contains(goal, "("+c.band) || strings.Contains(goal, ","+c.band)
}

// Expect returns the canonical expected answer of query at epoch.
func (c *Checker) Expect(query string, epoch uint64) (string, bool) {
	if c.states != nil && c.inBand(query) {
		s, ok := c.states[epoch%uint64(len(c.states))][query]
		return s, ok
	}
	s, ok := c.base[query]
	return s, ok
}

// Check reports whether rows are query's correct answer at epoch.
func (c *Checker) Check(query string, epoch uint64, rows [][]string) bool {
	want, ok := c.Expect(query, epoch)
	return ok && canonical(rows) == want
}
