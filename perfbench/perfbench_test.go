package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// streams serialises a workload's inputs: program, EDB and the first n
// reads and writes.
func streams(t *testing.T, w *Workload, n int) (prog, edb, reads, writes []byte) {
	t.Helper()
	var rb, wb bytes.Buffer
	for i := 0; i < n; i++ {
		b, err := json.Marshal(w.Read(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		rb.Write(append(b, '\n'))
		if len(w.Groups) > 0 {
			b, err = json.Marshal(w.Write(uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			wb.Write(append(b, '\n'))
		}
	}
	return []byte(w.Program), []byte(w.EDB), rb.Bytes(), wb.Bytes()
}

func TestGenerateIsSeedDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			gen := func(seed uint64) *Workload {
				w, err := Generate(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			p1, e1, r1, w1 := streams(t, gen(7), 2000)
			p2, e2, r2, w2 := streams(t, gen(7), 2000)
			if !bytes.Equal(p1, p2) || !bytes.Equal(e1, e2) || !bytes.Equal(r1, r2) || !bytes.Equal(w1, w2) {
				t.Fatal("same seed produced different inputs")
			}
			// The program text is fixed per workload; everything the seed
			// draws must change.
			_, e3, r3, w3 := streams(t, gen(8), 2000)
			if bytes.Equal(e1, e3) {
				t.Error("different seeds produced the same EDB")
			}
			if bytes.Equal(r1, r3) {
				t.Error("different seeds produced the same read stream")
			}
			if name == TCMixed && bytes.Equal(w1, w3) {
				t.Error("different seeds produced the same write stream")
			}
		})
	}
}

// The seed relabels but must not reshape: the same number of facts and
// goals, and on sg-eval the same request share per strategy.
func TestSeedsKeepShape(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := Generate(name, 1)
		b, _ := Generate(name, 2)
		if len(a.EDB) != len(b.EDB) || len(a.Goals) != len(b.Goals) {
			t.Errorf("%s: shape differs between seeds", name)
		}
	}
	w, _ := Generate(SGEval, 3)
	counts := map[string]int{}
	const n = 100000
	for i := uint64(0); i < n; i++ {
		counts[w.Read(i).Strategy]++
	}
	want := map[string]float64{"counting": 0.40, "counting-runtime": 0.285, "magic": 0.29, "qsq": 0.025}
	for s, share := range want {
		if got := float64(counts[s]) / n; math.Abs(got-share) > 0.01 {
			t.Errorf("strategy %s: share %.3f, want %.3f", s, got, share)
		}
	}
}

// Cyclic roots must never be sent to classical counting, which diverges
// on them.
func TestCyclicRootsNeverGetCounting(t *testing.T) {
	w, _ := Generate(SGEval, 1)
	for i := uint64(0); i < 50000; i++ {
		if r := w.Read(i); r.Strategy == "counting" && r.Query[len("?- sg("):][0] == 'y' {
			t.Fatalf("read %d sends cyclic root to counting: %+v", i, r)
		}
	}
}

func TestWriteStreamToggles(t *testing.T) {
	w, _ := Generate(TCMixed, 1)
	G := uint64(len(w.Groups))
	if w.EDBAfter(0) != w.EDB || w.EDBAfter(2*G) != w.EDB {
		t.Error("the EDB must return to its initial state every 2G writes")
	}
	if w.EDBAfter(1) == w.EDB {
		t.Error("the first write must change the EDB")
	}
	for i := uint64(0); i < 3*G; i++ {
		op := w.Write(i)
		if (op.Assert == "") == (op.Retract == "") {
			t.Fatalf("write %d must either assert or retract: %+v", i, op)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := Percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("p%g = %g, want %g", c.q*100, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

// A hand-built request: root [0,100] with children parse [10,20],
// prepare [20,30] and exec [40,90]; exec has a child [50,60] and
// an overlapping pair [70,80] and [75,85].
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "parser.ParseQuery", Parent: 0, Start: 10, End: 20},
		{Name: "plan.Prepare", Parent: 0, Start: 20, End: 30},
		{Name: "engine.counting.EvalContext", Parent: 0, Start: 40, End: 90},
		{Name: "a", Parent: 3, Start: 50, End: 60},
		{Name: "b", Parent: 3, Start: 70, End: 80},
		{Name: "c", Parent: 3, Start: 75, End: 85},
	}
	want := []time.Duration{100 - 10 - 10 - 50, 10, 10, 50 - 10 - 15, 10, 10, 10}
	got := SelfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if spans[3].Layer() != "engine" || spans[0].Layer() != "request" {
		t.Error("layer is the span name's first component")
	}
	// Merging tracers rebases parent indices.
	a, b := &Tracer{Spans: spans[:2]}, &Tracer{Spans: spans[:2]}
	m := mergeSpans([]*Tracer{a, b})
	if m[3].Parent != 2 {
		t.Errorf("merged parent = %d, want 2", m[3].Parent)
	}
}

func TestSliced(t *testing.T) {
	var ty Tally
	for i := 0; i < 30; i++ {
		ty.samples = append(ty.samples, sample{at: float64(i) / 10, ms: float64(i % 10), ok: i%2 == 0})
	}
	ty.samples = append(ty.samples, sample{at: 3.5, ms: 99, ok: true}) // after the deadline
	rate, p50 := ty.sliced(3*time.Second, 3)
	if fmt.Sprint(rate) != "[5 5 5]" || fmt.Sprint(p50) != "[4 4 4]" {
		t.Errorf("rate %v p50 %v", rate, p50)
	}
}

func TestCheckerRejectsTamperedAnswers(t *testing.T) {
	for _, name := range []string{SGEval, TCMixed} {
		w, _ := Generate(name, 1)
		chk, err := NewChecker(w)
		if err != nil {
			t.Fatal(err)
		}
		var q, want string
		for i := uint64(0); want == ""; i++ {
			q = w.Read(i).Query
			want, _ = chk.Expect(q, 0)
		}
		rows := decodeCanonical(want)
		rev := append([][]string(nil), rows...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		if !chk.Check(q, 0, rev) {
			t.Errorf("%s: correct answer in another order rejected", name)
		}
		with := func(extra ...[]string) [][]string {
			return append(append([][]string(nil), rows...), extra...)
		}
		renamed := with()
		renamed[0] = []string{rows[0][0], rows[0][1] + "z"}
		for i, bad := range [][][]string{
			rows[1:],                 // a row dropped
			with([]string{"x", "y"}), // a row added
			renamed,                  // a value changed
			with(rows[0]),            // a row duplicated
		} {
			if chk.Check(q, 0, bad) {
				t.Errorf("%s: tampered response %d accepted", name, i)
			}
		}
		if chk.Check("?- unknown(a,Y).", 0, nil) {
			t.Errorf("%s: a goal outside the key space must not check", name)
		}
	}
}

// On tc-mixed, a goal in the written band has one answer per EDB state:
// retracting the edge a->b of the first group removes b from tc(a,Y).
func TestCheckerFollowsEpochs(t *testing.T) {
	w, _ := Generate(TCMixed, 1)
	chk, err := NewChecker(w)
	if err != nil {
		t.Fatal(err)
	}
	edge := strings.TrimPrefix(w.Groups[0], "e(")
	q := fmt.Sprintf("?- tc(%s,Y).", edge[:strings.IndexByte(edge, ',')])
	before, _ := chk.Expect(q, 0)
	after, _ := chk.Expect(q, 1)
	if before == after {
		t.Fatalf("retracting %s did not change %s", w.Groups[0], q)
	}
	if !chk.Check(q, 2*uint64(len(w.Groups)), decodeCanonical(before)) {
		t.Error("after 2G writes the band is back in its initial state")
	}
	if chk.Check(q, 1, decodeCanonical(before)) {
		t.Error("the pre-write answer must not check at epoch 1")
	}
}

func TestParseStatCPU(t *testing.T) {
	stat := "4242 (lincount d) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 20 0 9 0 100 0 0"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3*time.Second {
		t.Errorf("cpu = %v, %v; want 3s", got, err)
	}
	m := parseProm([]byte("# HELP x y\nlincount_a_total 3\nlincount_h_sum{le=\"1\"} 0.5\n"))
	if m["lincount_a_total"] != 3 || m[`lincount_h_sum{le="1"}`] != 0.5 {
		t.Errorf("parseProm = %v", m)
	}
}

func decodeCanonical(s string) [][]string {
	var rows [][]string
	for _, r := range strings.Split(s, "\x1e") {
		rows = append(rows, strings.Split(r, "\x1f"))
	}
	return rows
}

// A short traced in-process run: every answer checks, and the spans show
// the designed split — evaluation layers on sg-eval, maintenance and the
// WAL on tc-mixed only. Run with -race, it covers the concurrent loops.
func TestInProcessRun(t *testing.T) {
	for _, c := range []struct {
		name      string
		want, not []string
	}{
		{SGEval, []string{"engine", "counting", "topdown", "parser", "server"}, []string{"incremental", "wal"}},
		{TCMixed, []string{"incremental", "wal", "parser", "server"}, []string{"engine", "counting", "topdown"}},
	} {
		w, _ := Generate(c.name, 3)
		chk, err := NewChecker(w)
		if err != nil {
			t.Fatal(err)
		}
		in, err := runInProcess(context.Background(), w, chk, 2, 800*time.Millisecond, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if in.Ops.Failed() != 0 || in.Ops.OK == 0 {
			t.Errorf("%s: %d of %d requests failed: %s", c.name, in.Ops.Failed(), in.Ops.Attempted(), in.Ops.FirstError)
		}
		layers := map[string]bool{}
		for _, s := range in.Spans {
			if s.Req != noRequest {
				layers[s.Layer()] = true
			}
		}
		for _, l := range c.want {
			if !layers[l] {
				t.Errorf("%s: no %s spans", c.name, l)
			}
		}
		for _, l := range c.not {
			if layers[l] {
				t.Errorf("%s: unexpected %s spans", c.name, l)
			}
		}
	}
}
