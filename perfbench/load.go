package main

// The closed-loop HTTP load: each connection sends its next request only
// after the previous reply arrived, as lincountd's callers do. Every read
// is checked against the oracle; every epoch a connection sees must be at
// least the last one it saw.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// QueryResp is the part of POST /v1/query's reply the benchmark reads.
type QueryResp struct {
	Answers      [][]string `json:"answers"`
	Epoch        uint64     `json:"epoch"`
	Strategy     string     `json:"strategy"`
	PlanCacheHit bool       `json:"plan_cache_hit"`
}

// WriteResp is POST /v1/write's reply.
type WriteResp struct {
	Epoch uint64 `json:"epoch"`
}

// Client talks to one lincountd over at most conns keep-alive connections.
type Client struct {
	hc   *http.Client
	base string
}

func NewClient(base string, conns int) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *Client) Close() { c.hc.CloseIdleConnections() }

// post sends body to path and decodes a 200 reply into out. It returns
// the round-trip time up to the last byte of the reply, and whether a
// failure was a shed (503).
func (c *Client) post(path string, body any, out any) (time.Duration, bool, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, false, err
	}
	start := time.Now()
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, false, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(start)
	if err != nil {
		return rtt, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return rtt, resp.StatusCode == http.StatusServiceUnavailable,
			fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return rtt, false, json.Unmarshal(data, out)
}

// Query sends one read.
func (c *Client) Query(r Req) (*QueryResp, time.Duration, bool, error) {
	var out QueryResp
	rtt, shed, err := c.post("/v1/query", r, &out)
	return &out, rtt, shed, err
}

// Write sends one write.
func (c *Client) Write(w WriteOp) (*WriteResp, time.Duration, bool, error) {
	var out WriteResp
	rtt, shed, err := c.post("/v1/write", w, &out)
	return &out, rtt, shed, err
}

// sample is one completed request: when it completed, in seconds since
// the window opened, its round trip, and whether it was verified.
type sample struct {
	at, ms float64
	ok     bool
}

// Tally counts one stream's outcomes.
type Tally struct {
	samples    []sample
	OK         int // completed and verified
	Errors     int // transport or HTTP errors other than sheds
	Shed       int // 503 replies
	Wrong      int // answers that failed the oracle or went back in epoch
	PlanHits   int // reads whose plan came from the plan cache
	Evaluated  int // reads answered by evaluation (not the materialisation)
	FactBytes  int // fact text written
	FirstError string
}

// Attempted is the number of requests sent.
func (t *Tally) Attempted() int { return t.OK + t.Errors + t.Shed + t.Wrong }

// Failed is the number of requests that did not succeed correctly.
func (t *Tally) Failed() int { return t.Errors + t.Shed + t.Wrong }

// LatMS returns every completed request's round trip in ms.
func (t *Tally) LatMS() []float64 {
	out := make([]float64, len(t.samples))
	for i, s := range t.samples {
		out[i] = s.ms
	}
	return out
}

// sliced splits the window into n equal slices and returns, per slice,
// the verified completions per second and the median round trip. Medians
// over slices keep a burst of interference from another tenant of the
// host out of the result.
func (t *Tally) sliced(window time.Duration, n int) (rate, p50 []float64) {
	width := window.Seconds() / float64(n)
	ok := make([]int, n)
	lat := make([][]float64, n)
	for _, s := range t.samples {
		k := int(s.at / width)
		if k >= n {
			continue // completed after the deadline
		}
		lat[k] = append(lat[k], s.ms)
		if s.ok {
			ok[k]++
		}
	}
	for k := 0; k < n; k++ {
		rate = append(rate, float64(ok[k])/width)
		if len(lat[k]) > 0 {
			p50 = append(p50, Percentile(lat[k], 0.5))
		}
	}
	return rate, p50
}

func (t *Tally) fail(shed bool, err error) {
	if shed {
		t.Shed++
	} else {
		t.Errors++
	}
	if t.FirstError == "" {
		t.FirstError = err.Error()
	}
}

func (t *Tally) wrong(msg string) {
	t.Wrong++
	if t.FirstError == "" {
		t.FirstError = msg
	}
}

func (t *Tally) add(o *Tally) {
	t.samples = append(t.samples, o.samples...)
	t.OK += o.OK
	t.Errors += o.Errors
	t.Shed += o.Shed
	t.Wrong += o.Wrong
	t.PlanHits += o.PlanHits
	t.Evaluated += o.Evaluated
	t.FactBytes += o.FactBytes
	if t.FirstError == "" {
		t.FirstError = o.FirstError
	}
}

// Window is the outcome of one closed-loop run.
type Window struct {
	Reads, Writes Tally
	Length        time.Duration // the configured window
	WritesAcked   uint64        // writes acknowledged, in stream order
}

// drive runs a closed loop on conns goroutines for d. With writes,
// goroutine 0 sends the write stream in order until write returns false,
// and the others read; reader r of R sends reads base+r, base+r+R, ...
// Calls for one k never overlap, so per-k state needs no lock.
func drive(conns int, writes bool, base uint64, d time.Duration, write func(n uint64) bool, read func(k int, i uint64)) {
	readers := conns
	if writes {
		readers--
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if writes && k == 0 {
				for n := uint64(0); time.Now().Before(deadline) && write(n); n++ {
				}
				return
			}
			r := k
			if writes {
				r--
			}
			for i := base + uint64(r); time.Now().Before(deadline); i += uint64(readers) {
				read(k, i)
			}
		}(k)
	}
	wg.Wait()
}

// add appends o's outcomes, shifting its sample times by offset.
func (w *Window) add(o *Window, offset time.Duration) {
	for _, t := range []struct{ dst, src *Tally }{{&w.Reads, &o.Reads}, {&w.Writes, &o.Writes}} {
		n := len(t.dst.samples)
		t.dst.add(t.src)
		for i := n; i < len(t.dst.samples); i++ {
			t.dst.samples[i].at += offset.Seconds()
		}
	}
}

// runWindow drives lincountd over HTTP for d: on tc-mixed connection 0
// writes, the others read, reads starting at readBase.
func runWindow(c *Client, w *Workload, chk *Checker, conns int, writes bool, readBase uint64, d time.Duration) *Window {
	tallies := make([]Tally, conns)
	last := make([]uint64, conns) // highest epoch each connection saw
	var acked uint64
	start := time.Now()
	write := func(n uint64) bool {
		t := &tallies[0]
		op := w.Write(n)
		resp, rtt, shed, err := c.Write(op)
		if err != nil {
			t.fail(shed, err)
			return false // later writes would toggle from an unknown state
		}
		t.FactBytes += len(op.Assert) + len(op.Retract)
		ok := resp.Epoch == n+1
		t.samples = append(t.samples, sample{time.Since(start).Seconds(), float64(rtt) / 1e6, ok})
		if !ok {
			t.wrong(fmt.Sprintf("write %d published epoch %d, want %d", n, resp.Epoch, n+1))
			return false
		}
		t.OK++
		acked = n + 1
		return true
	}
	read := func(k int, i uint64) {
		t := &tallies[k]
		q := w.Read(i)
		resp, rtt, shed, err := c.Query(q)
		if err != nil {
			t.fail(shed, err)
			return
		}
		sm := sample{time.Since(start).Seconds(), float64(rtt) / 1e6, false}
		switch {
		case resp.Epoch < last[k]:
			t.wrong(fmt.Sprintf("epoch went back from %d to %d", last[k], resp.Epoch))
		case !chk.Check(q.Query, resp.Epoch, resp.Answers):
			t.wrong(fmt.Sprintf("wrong answer to %s (%s) at epoch %d", q.Query, q.Strategy, resp.Epoch))
		default:
			t.OK++
			sm.ok = true
		}
		t.samples = append(t.samples, sm)
		last[k] = resp.Epoch
		if resp.Strategy != "materialized" {
			t.Evaluated++
			if resp.PlanCacheHit {
				t.PlanHits++
			}
		}
	}
	drive(conns, writes, readBase, d, write, read)
	win := &Window{Length: d, WritesAcked: acked}
	for k := range tallies {
		if writes && k == 0 {
			win.Writes.add(&tallies[k])
		} else {
			win.Reads.add(&tallies[k])
		}
	}
	return win
}

// checkAll queries every goal once over conns connections, expecting
// the server to be quiet at epoch, and returns the canonical answers;
// answers the checker rejects are tallied as wrong.
func checkAll(c *Client, goals []Req, chk *Checker, epoch uint64, conns int) (map[string]string, *Tally) {
	var mu sync.Mutex
	got := map[string]string{}
	tallies := make([]Tally, conns)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t := &tallies[k]
			for i := k; i < len(goals); i += conns {
				q := goals[i]
				resp, _, shed, err := c.Query(q)
				if err != nil {
					t.fail(shed, err)
					continue
				}
				if resp.Epoch != epoch {
					t.wrong(fmt.Sprintf("quiesced read at epoch %d, want %d", resp.Epoch, epoch))
					continue
				}
				if !chk.Check(q.Query, epoch, resp.Answers) {
					t.wrong(fmt.Sprintf("wrong answer to %s at quiesced epoch %d", q.Query, epoch))
					continue
				}
				t.OK++
				mu.Lock()
				got[q.Query+"\x00"+q.Strategy] = canonical(resp.Answers)
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	var all Tally
	for k := range tallies {
		all.add(&tallies[k])
	}
	return got, &all
}
