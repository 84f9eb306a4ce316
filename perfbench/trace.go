package main

// Spans and summary statistics. A span records one call into a layer's
// public function: name ("<layer>.<function>"), start, end, parent, and
// the request it belongs to. Spans live in memory, one Tracer per
// goroutine, and are written out when the benchmark ends.

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// Span is one traced call. Start and End are nanoseconds since the
// tracer's epoch; Parent is the index of the enclosing span within the
// same Tracer, or -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Layer is the span name's first component.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer collects the spans of one goroutine.
type Tracer struct {
	epoch time.Time
	Spans []Span
}

// NewTracer returns a tracer whose timestamps count from epoch.
func NewTracer(epoch time.Time) *Tracer { return &Tracer{epoch: epoch} }

// Begin opens a span and returns its index.
func (t *Tracer) Begin(name string, req int64, parent int32) int32 {
	t.Spans = append(t.Spans, Span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(t.epoch))})
	return int32(len(t.Spans) - 1)
}

// End closes span i.
func (t *Tracer) End(i int32) { t.Spans[i].End = int64(time.Since(t.epoch)) }

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children.
func SelfTimes(spans []Span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		covered, end := int64(0), int64(math.MinInt64)
		for _, v := range iv {
			if v[0] > end {
				covered += v[1] - v[0]
				end = v[1]
			} else if v[1] > end {
				covered += v[1] - end
				end = v[1]
			}
		}
		self[i] = s.Dur() - time.Duration(covered)
	}
	return self
}

// Percentile returns the nearest-rank q-quantile (0<q<=1) of xs, which
// it sorts in place; NaN for an empty sample.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	r := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(r, len(xs)-1))]
}

// Median returns the median of xs (mean of the middle two for even n).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durationsUS returns the durations in µs of every span named name.
func durationsUS(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e3)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
