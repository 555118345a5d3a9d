package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop caller count: OLAP middleware waits for each
// verdict before asking the next question, and the host has two CPUs.
const clients = 2

// newClient returns an HTTP client holding at most two keep-alive
// connections to the daemon, one per closed-loop caller.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// sample is one completed request as the client saw it.
type sample struct {
	req     *request
	lat     time.Duration
	err     string // transport error or unexpected status; empty when answered
	verdict string // canonical verdict of a read's response
	jobID   string // ID of an acknowledged job
}

// Response bodies, reduced to the fields a verdict depends on.
type (
	satBody struct {
		Satisfiable bool `json:"satisfiable"`
	}
	impliesBody struct {
		Implied bool `json:"implied"`
	}
	summarizableBody struct {
		Summarizable bool `json:"summarizable"`
		PerBottom    []struct {
			Bottom  string `json:"bottom"`
			Implied bool   `json:"implied"`
		} `json:"perBottom"`
	}
	sourcesBody struct {
		Sources [][]string `json:"sources"`
	}
	explainBody struct {
		Satisfiable bool  `json:"satisfiable"`
		Core        []int `json:"core"`
	}
	jobView struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Implied *bool `json:"implied"`
		} `json:"result"`
	}
)

// Canonical verdict strings. The verdict check renders the in-process
// answer the same way and compares strings.
func satVerdict(sat bool) string     { return fmt.Sprintf("sat=%t", sat) }
func impliesVerdict(imp bool) string { return fmt.Sprintf("implied=%t", imp) }
func sourcesVerdict(s [][]string) string {
	parts := make([]string, len(s))
	for i, set := range s {
		parts[i] = strings.Join(set, ",")
	}
	return "sources=" + strings.Join(parts, ";")
}
func explainVerdict(sat bool, core []int) string { return fmt.Sprintf("sat=%t core=%v", sat, core) }

func summarizableVerdict(ok bool, bottoms []string, implied []bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "summarizable=%t", ok)
	for i := range bottoms {
		fmt.Fprintf(&b, " %s=%t", bottoms[i], implied[i])
	}
	return b.String()
}

// send issues one request and decodes its verdict. Reads expect 200 and
// job submits 202; anything else is an error.
func send(ctx context.Context, c *http.Client, base string, r *request) (verdict, jobID string, err error) {
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	hr, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return "", "", err
	}
	if r.body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(hr)
	if err != nil {
		return "", "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", "", err
	}
	want := http.StatusOK
	if r.op == opJob {
		want = http.StatusAccepted
	}
	if resp.StatusCode != want {
		return "", "", fmt.Errorf("%s %s: status %d: %s", r.method, r.path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return decodeVerdict(r.op, data)
}

func decodeVerdict(op string, data []byte) (verdict, jobID string, err error) {
	switch op {
	case opSat:
		var b satBody
		err = json.Unmarshal(data, &b)
		verdict = satVerdict(b.Satisfiable)
	case opImplies:
		var b impliesBody
		err = json.Unmarshal(data, &b)
		verdict = impliesVerdict(b.Implied)
	case opSummarizable:
		var b summarizableBody
		err = json.Unmarshal(data, &b)
		bottoms := make([]string, len(b.PerBottom))
		implied := make([]bool, len(b.PerBottom))
		for i, pb := range b.PerBottom {
			bottoms[i], implied[i] = pb.Bottom, pb.Implied
		}
		verdict = summarizableVerdict(b.Summarizable, bottoms, implied)
	case opSources:
		var b sourcesBody
		err = json.Unmarshal(data, &b)
		verdict = sourcesVerdict(b.Sources)
	case opExplain:
		var b explainBody
		err = json.Unmarshal(data, &b)
		verdict = explainVerdict(b.Satisfiable, b.Core)
	case opJob:
		var b jobView
		err = json.Unmarshal(data, &b)
		jobID = b.ID
	}
	if err != nil {
		return "", "", fmt.Errorf("decoding %s response: %w", op, err)
	}
	return verdict, jobID, nil
}

func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	hr, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// call sends r and returns the sample, recording a loopback span when
// spans is non-nil.
func call(ctx context.Context, c *http.Client, base string, r *request, spans *spanLog) sample {
	start := time.Now()
	verdict, jobID, err := send(ctx, c, base, r)
	s := sample{req: r, lat: time.Since(start), verdict: verdict, jobID: jobID}
	if err != nil {
		s.err = err.Error()
	}
	if spans != nil {
		spans.add("loopback."+r.op, spans.root(), start, s.lat)
	}
	return s
}

// runList sends a fixed list of requests from the closed-loop callers
// and returns the samples in list order.
func runList(ctx context.Context, c *http.Client, base string, reqs []*request, spans *spanLog) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = call(ctx, c, base, reqs[i], spans)
			}
		}()
	}
	wg.Wait()
	return out
}

// window is the outcome of one timed closed-loop window.
type window struct {
	samples []sample
	elapsed time.Duration
}

func (w window) rps() float64 { return float64(len(w.samples)) / w.elapsed.Seconds() }

// drive runs the closed-loop callers over the stream, starting at stream
// index from, until d has passed; requests in flight at the deadline
// complete and count. It returns the samples and the next unused index.
func drive(ctx context.Context, c *http.Client, base string, st *stream, from int, d time.Duration, spans *spanLog) (window, int) {
	var next atomic.Int64
	next.Store(int64(from))
	per := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := st.at(int(next.Add(1) - 1))
				per[w] = append(per[w], call(ctx, c, base, r, spans))
			}
		}(w)
	}
	wg.Wait()
	win := window{elapsed: time.Since(start)}
	for _, p := range per {
		win.samples = append(win.samples, p...)
	}
	return win, int(next.Load())
}
