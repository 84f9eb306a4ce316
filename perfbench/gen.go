package main

// Seeded workload generation. Every input the benchmark sends — the
// program, the EDB, the read stream and the write stream — is a pure
// function of (workload, seed): the i-th request is computed from a hash
// of (seed, i), so two runs with one seed send byte-identical traffic and
// the in-process traced replay sees the same stream as the HTTP run.
//
// The seed changes names, fact order and request order, never the shape:
// every seed yields an isomorphic EDB with the same per-strategy request
// shares, so run-to-run spread measures the system, not the luck of the
// draw.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Req is one read request, in the JSON shape of POST /v1/query.
type Req struct {
	Query    string `json:"query"`
	Strategy string `json:"strategy,omitempty"`
}

// WriteOp is one write request, in the JSON shape of POST /v1/write.
type WriteOp struct {
	Assert  string `json:"assert,omitempty"`
	Retract string `json:"retract,omitempty"`
}

// Workload is one generated input set.
type Workload struct {
	Name    string
	Program string
	EDB     string
	// Goals is the read key space: every distinct (goal, strategy) the
	// read stream can produce.
	Goals []Req
	// Oracle is the open query whose semi-naive rows answer every goal.
	Oracle string
	// Groups is, for tc-mixed, the edge groups the writer toggles: group
	// g's fact text. Every group is present in EDB initially.
	Groups []string

	seed    uint64
	classes []readClass
	total   float64
}

// readClass is a slice of the read stream: goals drawn from keys (by
// Zipf rank when zipf is set, uniformly otherwise) with a fixed share of
// all reads.
type readClass struct {
	weight float64
	keys   []Req
	cdf    []float64 // cumulative Zipf weights over keys; nil = uniform
}

// Workload names.
const (
	SGEval  = "sg-eval"
	TCRead  = "tc-read"
	TCMixed = "tc-mixed"
)

var workloadNames = []string{SGEval, TCRead, TCMixed}

// Shape constants. sg-eval: sgCyl cylinders of sgDepth×sgWidth nodes
// with fan-out sgFan (the P1 shape, where counting wins), plus sgCyc
// cyclic chains of length sgChain with back arcs every sgPeriod nodes
// (the Example 5 shape). tc-*: tcBands disjoint bands of tcLayers layers
// of tcWidth nodes, complete bipartite between consecutive layers (the
// P16 shape); tcGroups toggle groups of tcGroupEdges edges each.
const (
	sgCyl, sgDepth, sgWidth, sgFan = 8, 16, 16, 2
	sgCyc, sgChain, sgPeriod       = 16, 24, 6
	zipfS                          = 1.0

	tcBands, tcLayers, tcWidth = 16, 20, 4
	tcGroups, tcGroupEdges     = 8, 3
)

const sgProgram = `% Example 1: same generation.
sg(X,Y) :- flat(X,Y).
sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).
`

const tcProgram = `% Transitive closure, right-linear.
tc(X,Y) :- e(X,Y).
tc(X,Y) :- e(X,Z), tc(Z,Y).
`

// Generate builds the named workload from seed.
func Generate(name string, seed uint64) (*Workload, error) {
	switch name {
	case SGEval:
		return genSG(seed), nil
	case TCRead, TCMixed:
		return genTC(name, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// mix is splitmix64's finalizer: a bijective scramble of x.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a uniform float in [0,1) determined by (seed, i, lane).
func unit(seed, i, lane uint64) float64 {
	return float64(mix(mix(seed^lane*0x632be59bd9b4e019)+i)>>11) / (1 << 53)
}

// perm returns a seeded permutation of 0..n-1 (Fisher–Yates).
func perm(seed, lane uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(unit(seed, uint64(i), lane) * float64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipfCDF returns the cumulative weights 1/rank^zipfS over n ranks.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), zipfS)
		cdf[k] = sum
	}
	return cdf
}

// pick returns the index whose cumulative weight first exceeds u·total.
func pick(cdf []float64, u float64) int {
	i := sort.SearchFloat64s(cdf, u*cdf[len(cdf)-1])
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

func (w *Workload) addClass(weight float64, keys []Req, zipf bool) {
	c := readClass{weight: weight, keys: keys}
	if zipf {
		// Rank keys by a seeded permutation so the hot set differs by
		// seed while the distribution's shape does not.
		p := perm(w.seed, uint64(len(w.classes))+100, len(keys))
		ranked := make([]Req, len(keys))
		for r, k := range p {
			ranked[r] = keys[k]
		}
		c.keys, c.cdf = ranked, zipfCDF(len(keys))
	}
	w.classes = append(w.classes, c)
	w.total += weight
	w.Goals = append(w.Goals, keys...)
}

// Read returns the i-th request of the read stream.
func (w *Workload) Read(i uint64) Req {
	u := unit(w.seed, i, 1) * w.total
	c := w.classes[len(w.classes)-1]
	for _, cl := range w.classes {
		if u < cl.weight {
			c = cl
			break
		}
		u -= cl.weight
	}
	v := unit(w.seed, i, 2)
	if c.cdf != nil {
		return c.keys[pick(c.cdf, v)]
	}
	return c.keys[int(v*float64(len(c.keys)))]
}

// Write returns the i-th request of the write stream: it toggles group
// i mod G, retracting it on even passes over the groups and re-asserting
// it on odd ones, so the EDB cycles through 2G states and stays
// stationary over a long run.
func (w *Workload) Write(i uint64) WriteOp {
	g := w.Groups[i%uint64(len(w.Groups))]
	if (i/uint64(len(w.Groups)))%2 == 0 {
		return WriteOp{Retract: g}
	}
	return WriteOp{Assert: g}
}

// Absent reports, after n acknowledged writes, which groups are retracted.
func (w *Workload) Absent(n uint64) []bool {
	G := uint64(len(w.Groups))
	out := make([]bool, G)
	for g := uint64(0); g < G; g++ {
		toggles := n / G
		if g < n%G {
			toggles++
		}
		out[g] = toggles%2 == 1
	}
	return out
}

// EDBAfter returns the EDB text after n acknowledged writes.
func (w *Workload) EDBAfter(n uint64) string {
	drop := map[string]bool{}
	for g, absent := range w.Absent(n) {
		if absent {
			for _, f := range strings.SplitAfter(w.Groups[g], ".") {
				if f = strings.TrimSpace(f); f != "" {
					drop[f] = true
				}
			}
		}
	}
	if len(drop) == 0 {
		return w.EDB
	}
	var sb strings.Builder
	for _, line := range strings.Split(w.EDB, "\n") {
		if line != "" && !drop[line] {
			sb.WriteString(line)
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// genSG builds sg-eval. Cylinder c's up arcs go from node j of layer l
// to nodes (j+k) mod width of layer l+1, k < fan, as in the P1 shape;
// the seed renames node j to π_c(j) in every layer, so every seed gives
// the same graph up to names and every root costs the same.
func genSG(seed uint64) *Workload {
	w := &Workload{Name: SGEval, Program: sgProgram, Oracle: "?- sg(X,Y).", seed: seed}
	var sb strings.Builder
	for _, c := range perm(seed, 3, sgCyl) {
		pi := perm(seed, 4+uint64(c), sgWidth)
		for l := 0; l < sgDepth; l++ {
			for j := 0; j < sgWidth; j++ {
				for k := 0; k < sgFan; k++ {
					fmt.Fprintf(&sb, "up(c%d_u%d_%d,c%d_u%d_%d).\n", c, l, pi[j], c, l+1, pi[(j+k)%sgWidth])
				}
			}
		}
		for j := 0; j < sgWidth; j++ {
			fmt.Fprintf(&sb, "flat(c%d_u%d_%d,c%d_d%d_%d).\n", c, sgDepth, pi[j], c, sgDepth, pi[j])
		}
		for l := sgDepth; l > 0; l-- {
			for j := 0; j < sgWidth; j++ {
				for k := 0; k < sgFan; k++ {
					fmt.Fprintf(&sb, "down(c%d_d%d_%d,c%d_d%d_%d).\n", c, l, pi[j], c, l-1, pi[(j+k)%sgWidth])
				}
			}
		}
	}
	// Example 5: an up chain whose back arcs close cycles of length
	// sgPeriod, one flat arc, and a down chain three times as long.
	// Classical counting diverges here; only the pointer runtime, magic
	// and QSQ are sent to these roots.
	for _, y := range perm(seed, 6, sgCyc) {
		for i := 0; i < sgChain; i++ {
			fmt.Fprintf(&sb, "up(y%d_u%d,y%d_u%d).\n", y, i, y, i+1)
		}
		for i := sgPeriod; i <= sgChain; i += sgPeriod {
			fmt.Fprintf(&sb, "up(y%d_u%d,y%d_u%d).\n", y, i, y, i-sgPeriod)
		}
		fmt.Fprintf(&sb, "flat(y%d_u%d,y%d_d%d).\n", y, sgChain, y, 3*sgChain)
		for i := 3 * sgChain; i > 0; i-- {
			fmt.Fprintf(&sb, "down(y%d_d%d,y%d_d%d).\n", y, i, y, i-1)
		}
	}
	w.EDB = sb.String()

	// Roots are the symmetric ones — layer 0 of every cylinder and the
	// head of every chain — so no seed draws a cheaper or dearer hot set.
	keys := func(strategy string, cyl bool) []Req {
		var out []Req
		if cyl {
			for c := 0; c < sgCyl; c++ {
				for j := 0; j < sgWidth; j++ {
					out = append(out, Req{fmt.Sprintf("?- sg(c%d_u0_%d,Y).", c, j), strategy})
				}
			}
			return out
		}
		for y := 0; y < sgCyc; y++ {
			out = append(out, Req{fmt.Sprintf("?- sg(y%d_u0,Y).", y), strategy})
		}
		return out
	}
	// Shares. Sorted by latency the classes run: chain heads under the
	// runtime or magic (about 0.2ms of evaluation), counting on cylinder
	// roots (0.5ms), magic on them (1.2ms), the runtime on them (3.5ms),
	// QSQ on chain heads (13ms). The median read lands in the middle of
	// the counting class, not on the edge between two classes, where a
	// percent more or less of either would move it. QSQ gets 2.5% and
	// only chain heads (57ms on a cylinder root): enough to exercise
	// topdown, little enough not to hide the others.
	w.addClass(0.15, keys("counting-runtime", false), true)
	w.addClass(0.15, keys("magic", false), true)
	w.addClass(0.40, keys("counting", true), true)
	w.addClass(0.14, keys("magic", true), true)
	w.addClass(0.135, keys("counting-runtime", true), true)
	w.addClass(0.025, keys("qsq", false), true)
	return w
}

// genTC builds tc-read and tc-mixed: the bands are emitted in a seeded
// order, and tc-mixed's toggle groups are seeded edge picks inside one
// seeded band.
func genTC(name string, seed uint64) *Workload {
	w := &Workload{Name: name, Program: tcProgram, Oracle: "?- tc(X,Y).", seed: seed}
	node := func(b, l, i int) string { return fmt.Sprintf("n%d_%d_%d", b, l, i) }
	var sb strings.Builder
	for _, b := range perm(seed, 3, tcBands) {
		for l := 0; l+1 < tcLayers; l++ {
			for i := 0; i < tcWidth; i++ {
				for j := 0; j < tcWidth; j++ {
					fmt.Fprintf(&sb, "e(%s,%s).\n", node(b, l, i), node(b, l+1, j))
				}
			}
		}
	}
	w.EDB = sb.String()

	var fwd, bwd []Req
	for b := 0; b < tcBands; b++ {
		for l := 0; l < tcLayers; l++ {
			for i := 0; i < tcWidth; i++ {
				fwd = append(fwd, Req{Query: fmt.Sprintf("?- tc(%s,Y).", node(b, l, i))})
				bwd = append(bwd, Req{Query: fmt.Sprintf("?- tc(X,%s).", node(b, l, i))})
			}
		}
	}
	// Uniform over nodes: answer-set size depends on the node's layer, so
	// a Zipf hot set would make the mean cost depend on the seed.
	w.addClass(0.5, fwd, false)
	w.addClass(0.5, bwd, false)

	if name == TCMixed {
		band := int(unit(seed, 0, 7) * tcBands)
		edges := perm(seed, 8, (tcLayers-1)*tcWidth*tcWidth)
		for g := 0; g < tcGroups; g++ {
			var gs strings.Builder
			for _, x := range edges[g*tcGroupEdges : (g+1)*tcGroupEdges] {
				l, i, j := x/(tcWidth*tcWidth), (x/tcWidth)%tcWidth, x%tcWidth
				fmt.Fprintf(&gs, "e(%s,%s).", node(band, l, i), node(band, l+1, j))
			}
			w.Groups = append(w.Groups, gs.String())
		}
	}
	return w
}
