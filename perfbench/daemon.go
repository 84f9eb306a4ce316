package main

// The lincountd process under test: spawn, readiness, /proc accounting,
// and scrapes of /metrics and /v1/stats.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; 100 on
// every Linux architecture Go supports.
const clkTck = 100

// Daemon is one running lincountd.
type Daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	done   chan struct{}
	mu     sync.Mutex
	stderr bytes.Buffer // last stderr bytes, for diagnostics
}

// StartDaemon spawns bin with args plus an ephemeral listen address and
// returns once /readyz answers 200, with the spawn-to-ready time.
func StartDaemon(bin string, args []string) (*Daemon, time.Duration, error) {
	d := &Daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	errPipe, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	addrC := make(chan string, 1)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting lincountd: %w", err)
	}
	// Wait closes the pipe, so it runs only after the reader hit EOF.
	go func() {
		d.readStderr(errPipe, addrC)
		_ = d.cmd.Wait()
		close(d.done)
	}()

	var addr string
	select {
	case addr = <-addrC:
	case <-d.done:
		return nil, 0, fmt.Errorf("lincountd exited before serving: %s", d.Stderr())
	case <-time.After(60 * time.Second):
		d.Kill()
		return nil, 0, errors.New("lincountd did not announce its address within 60s")
	}
	d.base = "http://" + addr
	cl := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := cl.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready := time.Since(start)
				cl.CloseIdleConnections()
				return d, ready, nil
			}
		}
		if time.Since(start) > 60*time.Second {
			d.Kill()
			return nil, 0, fmt.Errorf("lincountd not ready within 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// readStderr forwards the banner's address and keeps the stderr tail.
func (d *Daemon) readStderr(r io.Reader, addrC chan<- string) {
	const marker = " on http://"
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, marker); !sent && i >= 0 && strings.HasPrefix(line, "lincountd: serving") {
			addrC <- strings.TrimSuffix(line[i+len(marker):], "/")
			sent = true
		}
		d.mu.Lock()
		if d.stderr.Len() > 32<<10 {
			tail := append([]byte(nil), d.stderr.Bytes()[d.stderr.Len()-16<<10:]...)
			d.stderr.Reset()
			d.stderr.Write(tail)
		}
		d.stderr.WriteString(line + "\n")
		d.mu.Unlock()
	}
}

// Stderr returns the tail of the daemon's standard error.
func (d *Daemon) Stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// Base is the daemon's URL root.
func (d *Daemon) Base() string { return d.base }

// Pid is the daemon's process id.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// Stop drains the daemon with SIGTERM, escalating to SIGKILL after 15s,
// and waits for it to exit.
func (d *Daemon) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		d.Kill()
	}
}

// Kill sends SIGKILL and waits for the process to exit.
func (d *Daemon) Kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// CPU returns the daemon's user+system CPU time so far.
func (d *Daemon) CPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.Pid()))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line. The
// command name may contain spaces, so fields are counted after its ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// PeakRSSMiB returns the daemon's VmHWM in MiB.
func (d *Daemon) PeakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.Pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// Scrape is one reading of the server's own counters.
type Scrape struct {
	Metrics map[string]float64 // Prometheus sample name{labels} -> value
	Stats   map[string]float64 // numeric fields of /v1/stats
	CPU     time.Duration
	// HostSteal and HostTotal are the machine's stolen and total CPU
	// ticks from /proc/stat: time a hypervisor gave to other guests.
	HostSteal, HostTotal uint64
}

// scrape reads /metrics, /v1/stats and the process CPU time.
func scrape(cl *http.Client, d *Daemon) (*Scrape, error) {
	s := &Scrape{Stats: map[string]float64{}}
	var err error
	if s.CPU, err = d.CPU(); err != nil {
		return nil, err
	}
	s.HostSteal, s.HostTotal = hostSteal()
	body, err := get(cl, d.Base()+"/metrics")
	if err != nil {
		return nil, err
	}
	s.Metrics = parseProm(body)
	body, err = get(cl, d.Base()+"/v1/stats")
	if err != nil {
		return nil, err
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	for k, v := range raw {
		switch v := v.(type) {
		case float64:
			s.Stats[k] = v
		case bool:
			s.Stats[k] = map[bool]float64{false: 0, true: 1}[v]
		}
	}
	return s, nil
}

// hostSteal returns the steal and total ticks of /proc/stat's cpu line,
// or zeros where the file is unreadable.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func get(cl *http.Client, url string) ([]byte, error) {
	resp, err := cl.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// parseProm parses Prometheus text exposition into sample -> value.
func parseProm(body []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// Deltas sums the movement of the server's counters over the timed
// segments of a run.
type Deltas struct {
	m            map[string]float64 // /metrics samples
	st           map[string]float64 // numeric /v1/stats fields
	steal, total uint64             // host CPU ticks
}

// add folds in one segment's scrapes from before (a) and after (b).
func (dl *Deltas) add(a, b *Scrape) {
	for k, v := range b.Metrics {
		dl.m[k] += v - a.Metrics[k]
	}
	for k, v := range b.Stats {
		dl.st[k] += v - a.Stats[k]
	}
	dl.steal += b.HostSteal - a.HostSteal
	dl.total += b.HostTotal - a.HostTotal
}

// delta is one sample's movement (0 when absent).
func (dl *Deltas) delta(name string) float64 { return dl.m[name] }

// mean is the mean of a histogram's observations in the segments.
func (dl *Deltas) mean(hist string) float64 {
	n := dl.m[hist+"_count"]
	if n == 0 {
		return 0
	}
	return dl.m[hist+"_sum"] / n
}
