// Command perfbench is lincount's system benchmark. It generates one
// workload from a seed, starts the real lincountd on it, drives it over
// HTTP in a closed loop, checks every answer against semi-naive
// evaluation, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced in-process replay (--trace 1). The last
// line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Run it through run.sh, which builds lincountd and this program first:
//
//	bash perfbench/run.sh --workload sg-eval --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// segments is how many lincountd processes share one run's window.
	segments = 10
	// segmentWarmup precedes each segment, unmeasured, so the plan cache
	// and connections are in steady state.
	segmentWarmup = 500 * time.Millisecond
	// checkpointRecords makes tc-mixed checkpoint about once a segment,
	// so each run sees several automatic checkpoints.
	checkpointRecords = 100
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// line is one report line: a named metric, or "n/a" with a reason.
type line struct {
	name, unit string
	value      float64
	note       string
	na         bool
}

type opts struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	lincountd string
	workDir   string
	conns     int
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var o opts
	fset.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fset.Int64Var(&o.seed, "seed", 1, "seed for the generated program, EDB and request streams")
	fset.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	fset.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fset.StringVar(&o.lincountd, "lincountd", filepath.Join(".bench_build", "bin", "lincountd"), "lincountd binary")
	fset.StringVar(&o.workDir, "work", filepath.Join(".bench_build", "perfbench"), "directory for inputs, data dirs and results")
	fset.IntVar(&o.conns, "conns", runtime.NumCPU(), "keep-alive connections (at most nproc)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	switch {
	case o.trace != 0 && o.trace != 1:
		return fail(errors.New("--trace must be 0 or 1"))
	case o.seconds < 1:
		return fail(errors.New("--seconds must be at least 1"))
	case o.conns < 1 || o.conns > runtime.NumCPU():
		return fail(fmt.Errorf("--conns %d: want 1..nproc (%d)", o.conns, runtime.NumCPU()))
	case o.workload == TCMixed && o.conns < 2:
		return fail(errors.New("tc-mixed needs two connections, one writer and one reader"))
	}
	w, err := Generate(o.workload, uint64(o.seed))
	if err != nil {
		return fail(err)
	}
	if _, err := os.Stat(o.lincountd); err != nil {
		return fail(fmt.Errorf("lincountd binary: %w", err))
	}
	res, lines, meta, err := bench(o, w)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d trace=%d seconds=%d\n", o.workload, o.seed, o.trace, o.seconds)
	for _, k := range sortedKeys(meta) {
		fmt.Fprintf(stdout, "meta %s=%s\n", k, meta[k])
	}
	for _, l := range lines {
		if l.na {
			fmt.Fprintf(stdout, "%-34s n/a (%s)\n", l.name, l.note)
		} else {
			fmt.Fprintf(stdout, "%-34s %.6g %s", l.name, l.value, l.unit)
			if l.note != "" {
				fmt.Fprintf(stdout, " (%s)", l.note)
			}
			fmt.Fprintln(stdout)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	if err := saveResult(o, meta, lines, res); err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// e2eNames and layerNames are the metrics the result line carries under
// --trace 0 and --trace 1. Each is measured on every workload, is never
// zero, and stayed inside its bound from run to run, so a regression
// gate can hold every workload to each. The report also prints
// read_ops_s, read_p50_ms, read_p99_ms, the write metrics and
// fail_ratio, which the result line leaves out: the read timings follow
// the speed of a shared host, moving more than any usable bound within
// ten runs when other guests are busy (see README.md); the write metrics
// exist on tc-mixed only; and fail_ratio is zero when the system is
// correct, which the result line already says through "failed" and
// "attempted".
var (
	e2eNames   = []string{"setup_s", "server_cpu_ms_per_op", "server_peak_rss_mb"}
	layerNames = []string{
		"server.query_p50_us", "server.http_p50_us", "server.queue_wait_mean_us",
		"parser.query_p50_us", "database.load_s", "incremental.materialize_s",
		"parser.self_share", "plan.self_share", "engine.self_share", "counting.self_share",
		"topdown.self_share", "incremental.self_share", "wal.self_share",
		"bench.trace_overhead_ratio",
	}
)

// bench runs one measurement and returns the result line, the report
// lines and the run metadata.
func bench(o opts, w *Workload) (*Result, []line, map[string]string, error) {
	ctx := context.Background()
	window := time.Duration(o.seconds) * time.Second
	runDir := filepath.Join(o.workDir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	for _, dir := range []string{runDir, filepath.Dir(resultPath(o, ""))} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, nil, err
		}
	}
	defer os.RemoveAll(runDir)
	progPath, edbPath := filepath.Join(runDir, "program.dl"), filepath.Join(runDir, "edb.dl")
	if err := os.WriteFile(progPath, []byte(w.Program), 0o644); err != nil {
		return nil, nil, nil, err
	}
	if err := os.WriteFile(edbPath, []byte(w.EDB), 0o644); err != nil {
		return nil, nil, nil, err
	}
	writes := len(w.Groups) > 0
	meta := metadata(o, runDir, writes)

	chk, err := NewChecker(w)
	if err != nil {
		return nil, nil, nil, err
	}

	// The window is split over several lincountd processes, a segment
	// each: processes of one binary differ in speed (heap layout, hash
	// seeds, GC pacing), and medians over several keep one process's luck
	// out of the result. Every start also counts towards setup_s.
	dataDir := ""
	daemonArgs := func() []string {
		a := []string{"-program", progPath, "-facts", edbPath}
		if writes {
			a = append(a, "-data-dir", dataDir, "-fsync", "always",
				"-checkpoint-records", fmt.Sprint(checkpointRecords))
		}
		return a
	}
	var (
		d           *Daemon
		cl          *Client
		setups, rss []float64
		cpuPerOp    []float64
		win         = &Window{Length: window}
		last        *Window // the final segment, for the post-window checks
		dl          = &Deltas{m: map[string]float64{}, st: map[string]float64{}}
		ops         Tally // every request sent, for attempted/failed
		seg         = window / segments
	)
	defer func() {
		if cl != nil {
			cl.Close()
		}
		if d != nil {
			d.Stop()
		}
	}()
	for k := 0; k < segments; k++ {
		if d != nil {
			cl.Close()
			d.Stop()
			d, cl = nil, nil
		}
		if writes {
			dataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", k))
			if err := os.MkdirAll(dataDir, 0o755); err != nil {
				return nil, nil, nil, err
			}
		}
		nd, ready, err := StartDaemon(o.lincountd, daemonArgs())
		if err != nil {
			return nil, nil, nil, err
		}
		d, cl = nd, NewClient(nd.Base(), o.conns)
		setups = append(setups, ready.Seconds())

		// One P for the load generator leaves the other to the server
		// and keeps the client's own threads from crowding it.
		prev := runtime.GOMAXPROCS(1)
		warm := runWindow(cl, w, chk, o.conns, false, 1<<40+uint64(k)<<32, segmentWarmup)
		s0, err0 := scrape(cl.hc, d)
		sw := runWindow(cl, w, chk, o.conns, writes, uint64(k)<<32, seg)
		s1, err1 := scrape(cl.hc, d)
		runtime.GOMAXPROCS(prev)
		if err := errors.Join(err0, err1); err != nil {
			return nil, nil, nil, err
		}
		peak, err := d.PeakRSSMiB()
		if err != nil {
			return nil, nil, nil, err
		}
		for _, t := range []*Tally{&warm.Reads, &sw.Reads, &sw.Writes} {
			ops.add(t)
		}
		win.add(sw, time.Duration(k)*seg)
		dl.add(s0, s1)
		rss = append(rss, peak)
		cpuPerOp = append(cpuPerOp, (s1.CPU-s0.CPU).Seconds()*1e3/float64(max(1, sw.Reads.OK+sw.Writes.OK)))
		last = sw
	}

	// tc-mixed: quiesce, check every goal against semi-naive on the final
	// EDB, then SIGKILL, recover, and check every goal answers as before.
	recoveryS := math.NaN()
	if writes {
		epoch := last.WritesAcked
		final, err := semiNaive(w.Program, w.EDBAfter(epoch), w.Oracle, w.Goals)
		if err != nil {
			return nil, nil, nil, err
		}
		finalChk := &Checker{base: final}
		before, t := checkAll(cl, w.Goals, finalChk, epoch, o.conns)
		ops.add(t)
		cl.Close()
		d.Kill()
		d, cl = nil, nil
		nd, ready, err := StartDaemon(o.lincountd, daemonArgs())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		d, cl = nd, NewClient(nd.Base(), o.conns)
		recoveryS = ready.Seconds()
		after, t := checkAll(cl, w.Goals, finalChk, epoch, o.conns)
		ops.add(t)
		for k, v := range before {
			if after[k] != v {
				ops.wrong("after recovery " + k + " answers differently")
			}
		}
	}
	cl.Close()
	d.Stop()
	d, cl = nil, nil

	lines := e2eLines(setups, win, cpuPerOp, rss, writes, &ops)
	if dl.total > 0 {
		meta["host_steal_pct"] = fmt.Sprintf("%.1f", 100*float64(dl.steal)/float64(dl.total))
	}
	fb := dl.st["maint_fallbacks"]
	meta["maint_fallbacks"] = fmt.Sprint(fb)
	if fb != 0 {
		meta["WARNING"] = fmt.Sprintf("%g maintenance fallbacks in the window: writes measured re-materialisation, not Apply", fb)
	}
	if o.trace == 1 {
		in, err := runInProcess(ctx, w, chk, o.conns, window, runDir)
		if err != nil {
			return nil, nil, nil, err
		}
		ops.add(&in.Ops)
		lines = append(lines, layerLines(w, win, dl, in, recoveryS)...)
		if err := writeSpans(resultPath(o, "spans.jsonl"), in.Spans); err != nil {
			return nil, nil, nil, err
		}
	}

	res := &Result{
		Correct:   ops.Failed() == 0,
		Attempted: ops.Attempted(),
		Failed:    ops.Failed(),
		Metrics:   map[string]Metric{},
	}
	names := e2eNames
	if o.trace == 1 {
		names = layerNames
	}
	for _, name := range names {
		for _, l := range lines {
			if l.name == name && !l.na {
				res.Metrics[name] = Metric{Value: l.value, Unit: l.unit}
			}
		}
		if _, ok := res.Metrics[name]; !ok {
			return nil, nil, nil, fmt.Errorf("metric %s not measured", name)
		}
	}
	if ops.FirstError != "" {
		meta["first_error"] = ops.FirstError
	}
	return res, lines, meta, nil
}

// e2eLines computes the end-to-end metrics of the window.
func e2eLines(setups []float64, win *Window, cpuPerOp, rss []float64, writes bool, ops *Tally) []line {
	r, wr := &win.Reads, &win.Writes
	slices := max(1, int(win.Length/time.Second))
	rRate, rP50 := r.sliced(win.Length, slices)
	sliceNote := fmt.Sprintf("median of %d one-second slices over %d processes", slices, segments)
	out := []line{
		{name: "setup_s", unit: "s", value: Median(setups), note: fmt.Sprintf("median of %d starts: %s", len(setups), fmtList(setups, "%.4f"))},
		{name: "read_ops_s", unit: "ops/s", value: Median(rRate), note: fmt.Sprintf("%s; %d verified reads of %d", sliceNote, r.OK, r.Attempted())},
		{name: "read_p50_ms", unit: "ms", value: Median(rP50), note: fmt.Sprintf("%s; n=%d", sliceNote, len(r.samples))},
		{name: "read_p99_ms", unit: "ms", value: Percentile(r.LatMS(), 0.99), note: fmt.Sprintf("whole window; n=%d", len(r.samples))},
	}
	if writes {
		wRate, wP50 := wr.sliced(win.Length, slices)
		out = append(out,
			line{name: "write_ops_s", unit: "ops/s", value: Median(wRate), note: fmt.Sprintf("%s; %d acknowledged of %d", sliceNote, wr.OK, wr.Attempted())},
			line{name: "write_p50_ms", unit: "ms", value: Median(wP50), note: fmt.Sprintf("%s; n=%d", sliceNote, len(wr.samples))},
			line{name: "write_p99_ms", unit: "ms", value: Percentile(wr.LatMS(), 0.99), note: fmt.Sprintf("whole window; n=%d", len(wr.samples))})
	} else {
		for _, n := range []string{"write_ops_s", "write_p50_ms", "write_p99_ms"} {
			out = append(out, line{name: n, na: true, note: "read-only workload"})
		}
	}
	out = append(out,
		line{name: "server_cpu_ms_per_op", unit: "ms", value: Median(cpuPerOp), note: "median over processes: " + fmtList(cpuPerOp, "%.3f")},
		line{name: "server_peak_rss_mb", unit: "MiB", value: Median(rss), note: "median over processes: " + fmtList(rss, "%.1f")},
		line{name: "fail_ratio", unit: "ratio", value: float64(ops.Failed()) / float64(max(ops.Attempted(), 1)),
			note: fmt.Sprintf("%d errors, %d sheds, %d wrong of %d attempted, checks included", ops.Errors, ops.Shed, ops.Wrong, ops.Attempted())},
	)
	return out
}

// layerLines computes the per-layer metrics of the traced run and the
// scrapes around the HTTP window.
func layerLines(w *Workload, win *Window, dl *Deltas, in *InProc, recoveryS float64) []line {
	var out []line
	add := func(name, unit string, v float64, note string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out = append(out, line{name: name, na: true, note: "layer does not run on " + w.Name})
			return
		}
		out = append(out, line{name: name, unit: unit, value: v, note: note})
	}
	p50 := func(name string) (float64, string) {
		xs := durationsUS(in.Spans, name)
		return Percentile(xs, 0.5), fmt.Sprintf("n=%d", len(xs))
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return math.NaN()
		}
		return float64(a) / float64(b)
	}
	work := func(name string) *workCounts {
		if c := in.Work[name]; c != nil {
			return c
		}
		return &workCounts{}
	}

	q, qn := p50("server.Query")
	add("server.query_p50_us", "us", q, qn)
	add("server.http_p50_us", "us", Percentile(win.Reads.LatMS(), 0.5)*1e3-q, "HTTP read p50 minus server.query_p50_us")
	v, n := p50("server.Write")
	add("server.write_p50_us", "us", v, n)
	add("server.queue_wait_mean_us", "us", dl.mean("lincount_server_queue_wait_seconds")*1e6,
		fmt.Sprintf("n=%g", dl.delta("lincount_server_queue_wait_seconds_count")))
	bm := math.NaN()
	if dl.delta("lincount_server_write_batch_ops_count") > 0 {
		bm = dl.mean("lincount_server_write_batch_ops")
	}
	add("server.batch_ops_mean", "ops", bm, "")
	add("server.shed", "count", dl.delta("lincount_server_shed_total"), "")
	v, n = p50("parser.ParseQuery")
	add("parser.query_p50_us", "us", v, n)
	add("database.load_s", "s", in.LoadS, "initial EDB")

	hits, misses := dl.delta("lincount_plan_cache_hits_total"), dl.delta("lincount_plan_cache_misses_total")
	add("plan.hit_ratio", "ratio", ratio(int64(win.Reads.PlanHits), int64(win.Reads.Evaluated)),
		fmt.Sprintf("responses; /metrics says %.4f of %g lookups", hits/(hits+misses), hits+misses))
	v, n = p50("plan.Prepare")
	add("plan.compile_p50_us", "us", v, "lincount.Prepare on a prepared-query miss, "+n)

	for _, s := range []struct{ span, prefix string }{
		{"engine.counting.EvalContext", "engine.counting"},
		{"engine.magic.EvalContext", "engine.magic"},
	} {
		v, n = p50(s.span)
		add(s.prefix+".exec_p50_us", "us", v, n)
	}
	ec, em := work("engine.counting.EvalContext"), work("engine.magic.EvalContext")
	add("engine.inferences_per_answer", "count", ratio(ec.inferences+em.inferences, ec.answers+em.answers), "counting and magic")
	add("engine.probes_per_answer", "count", ratio(ec.probes+em.probes, ec.answers+em.answers), "counting and magic")
	v, n = p50("counting.EvalContext")
	add("counting.exec_p50_us", "us", v, "counting-runtime, "+n)
	cr := work("counting.EvalContext")
	add("counting.nodes_per_query", "count", ratio(cr.nodes, cr.evals), "")
	add("counting.probes_per_answer", "count", ratio(cr.probes, cr.answers), "")
	v, n = p50("topdown.EvalContext")
	add("topdown.exec_p50_us", "us", v, "qsq, "+n)
	td := work("topdown.EvalContext")
	add("topdown.inferences_per_answer", "count", ratio(td.inferences, td.answers), "")

	add("incremental.materialize_s", "s", in.MaterializeS, "initial EDB")
	v, n = p50("incremental.Answers")
	add("incremental.answers_p50_us", "us", v, n)
	v, n = p50("incremental.Apply")
	add("incremental.apply_p50_us", "us", v, n)
	ap := work("apply")
	add("incremental.rederive_ratio", "ratio", ratio(ap.rederived, ap.overdeleted), "rederived / overdeleted")
	add("incremental.derived_delta_per_write", "count", ratio(ap.derived, ap.applies), "")

	v, n = p50("wal.Append")
	add("wal.append_p50_us", "us", v, n)
	v, n = p50("wal.Sync")
	fs := dl.mean("lincount_wal_fsync_seconds") * 1e6
	add("wal.fsync_p50_us", "us", v, fmt.Sprintf("%s; lincountd's own fsync mean %.1fus", n, fs))
	walBytes := dl.delta("lincount_wal_bytes_total")
	bpb := math.NaN()
	if win.Writes.FactBytes > 0 {
		bpb = walBytes / float64(win.Writes.FactBytes)
	}
	add("wal.bytes_per_user_byte", "ratio", bpb, "")
	ck, ckMean := math.NaN(), math.NaN()
	if len(w.Groups) > 0 {
		ck = dl.delta("lincount_wal_checkpoints_total")
		ckMean = dl.mean("lincount_wal_checkpoint_seconds") * 1e3
	}
	add("wal.checkpoints", "count", ck, "")
	add("wal.checkpoint_mean_ms", "ms", ckMean, "")
	add("wal.recovery_s", "s", recoveryS, "SIGKILL after the window, restart to /readyz")

	// Self-time shares of the replay's request time, by layer.
	self := SelfTimes(in.Spans)
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for i, s := range in.Spans {
		if s.Name == "request" {
			total += s.Dur()
		} else if s.Parent >= 0 {
			byLayer[s.Layer()] += self[i]
		}
	}
	for _, l := range []string{"parser", "plan", "engine", "counting", "topdown", "incremental", "wal"} {
		add(l+".self_share", "ratio", float64(byLayer[l])/float64(max(total, 1)),
			fmt.Sprintf("%.1fms of %.1fms replayed request time", float64(byLayer[l])/1e6, float64(total)/1e6))
	}
	add("bench.trace_overhead_ratio", "ratio", in.TracedUS/in.UntracedUS-1,
		fmt.Sprintf("%.2fus a read in traced blocks vs %.2fus untraced", in.TracedUS, in.UntracedUS))
	return out
}

// metadata records the run's environment.
func metadata(o opts, dir string, writes bool) map[string]string {
	m := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit(),
		"seed":       fmt.Sprint(o.seed),
		"conns":      fmt.Sprint(o.conns),
		"loop":       "closed",
		"fsync":      "n/a",
		"data_fs":    fsType(dir),
	}
	if writes {
		m["fsync"] = "always"
	}
	return m
}

// commit is the git HEAD of the checkout, or, outside a git work tree, a
// hash of the Go sources, go.mod files and .dl files under it.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != "." && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if n := e.Name(); !e.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || strings.HasSuffix(n, ".dl")) {
			if b, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x65735546: "fuse", 0x6969: "nfs", 0x2fc12fc1: "zfs",
		0x01021997: "v9fs", 0x5346414f: "afs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func resultPath(o opts, suffix string) string {
	return filepath.Join(o.workDir, "results", fmt.Sprintf("%s-seed%d-trace%d.%s", o.workload, o.seed, o.trace, suffix))
}

// saveResult keeps the full report next to the spans.
func saveResult(o opts, meta map[string]string, lines []line, res *Result) error {
	type row struct {
		Name  string   `json:"name"`
		Value *float64 `json:"value,omitempty"`
		Unit  string   `json:"unit,omitempty"`
		Note  string   `json:"note,omitempty"`
	}
	rows := make([]row, len(lines))
	for i, l := range lines {
		rows[i] = row{Name: l.name, Unit: l.unit, Note: l.note}
		if !l.na {
			v := l.value
			rows[i].Value = &v
		}
	}
	b, err := json.MarshalIndent(map[string]any{"meta": meta, "metrics": rows, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(o, "json"), b, 0o644)
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fmtList(xs []float64, f string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(s, " ")
}
