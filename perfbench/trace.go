package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a public function of a layer, made by the
// benchmark's own code. Parent links a call to the span of the request it
// serves; spans of one replayed request share that parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the log was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps spans in memory until the run writes them out. Safe for
// concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// root opens a parent span ID for one request; the request's spans then
// name it as their parent.
func (l *spanLog) root() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: int64(len(l.spans) + 1), Name: "request"})
	return int64(len(l.spans))
}

// add records a call that started at start and took d.
func (l *spanLog) add(name string, parent int64, start time.Time, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := start.Sub(l.t0).Nanoseconds()
	l.spans = append(l.spans, span{ID: int64(len(l.spans) + 1), Parent: parent, Name: name, Start: s, End: s + d.Nanoseconds()})
}

// durations returns the durations of the spans named name, by parent.
func (l *spanLog) durations(name string) map[int64]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[int64]time.Duration{}
	for _, s := range l.spans {
		if s.Name == name {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// all returns the durations of every span named name.
func (l *spanLog) all(name string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of ds by the nearest-rank method.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
