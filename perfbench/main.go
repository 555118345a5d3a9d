// Command perfbench is the repository's benchmark. It builds a seeded
// request stream for one named workload, drives a real dimsatd process
// with two closed-loop callers over two keep-alive connections, re-decides
// every answer in process, and prints the metrics by name as the last
// line of standard output. With -trace 1 it also replays the stream in
// process, rung by rung (loopback, server.ServeHTTP, facade call, parse),
// and prints per-layer metrics instead. See README.md.
//
//	perfbench -dimsatd bin/dimsatd -workdir .bench_build -workload hot-mix -seed 1 -seconds 10 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setups is how many times an untraced run starts a daemon and warms it
// up; setup_s is their median. Only the last daemon serves the window.
const setups = 5

// jobsWait bounds the wait for acknowledged jobs to finish.
const jobsWait = 60 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	dimsatd := flag.String("dimsatd", "", "path of the dimsatd binary to drive")
	workdir := flag.String("workdir", "", "directory for schema, job store and span files")
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "request-stream seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	w := workloads[*name]
	if w == nil || *dimsatd == "" || *workdir == "" || *seconds < 1+*traced {
		fmt.Fprintf(os.Stderr, "perfbench: need -dimsatd, -workdir, -seconds >= 1 (2 when traced) and -workload (one of %s)\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, bin: *dimsatd, dir: dir, traced: *traced == 1}
	res, record, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec, err := json.Marshal(record)
	if err == nil {
		fmt.Println(string(rec))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding the result:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bench is one run of one workload.
type bench struct {
	w      *workload
	seed   int64
	window time.Duration
	bin    string
	dir    string
	traced bool
}

// sliceLen is the length of one window slice. Rates, medians and CPU per
// request are taken per slice and reported as the median over slices, so
// a burst of contention from the host's other tenants moves a few slices
// rather than the whole figure.
const sliceLen = time.Second

// sourcesProbe and the job probe are spread over the slices of workloads
// whose mix lacks the operation: a p99 needs ten samples beyond it.
const sourcesProbe = 1000

// slice is one slice of the timed window.
type slice struct {
	win     window
	ticks   int64    // daemon CPU ticks spent in the slice's window part
	sources []sample // GET /sources answered in the slice
}

// run performs the whole run and returns the result line plus a record of
// sample counts, set-up times and failures for the reader.
func (b *bench) run() (*result, map[string]any, error) {
	ctx := context.Background()
	t0 := time.Now()
	phases := map[string]float64{}
	phase := func(name string) {
		phases[name] = time.Since(t0).Seconds()
		t0 = time.Now()
	}
	ds := family(b.w.categories)
	sp := newSpace(ds)
	st := newStream(b.w, sp, b.seed)
	schemaPath := filepath.Join(b.dir, "schema.dims")
	if err := os.WriteFile(schemaPath, []byte(ds.Format()), 0o644); err != nil {
		return nil, nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()

	n := setups
	if b.traced {
		n = 1
	}
	var d *daemon
	var setupS []float64
	var all []sample // every answered request, for the verdict check
	for i := 0; i < n; i++ {
		if d != nil {
			d.stop()
			c.CloseIdleConnections()
		}
		start := time.Now()
		var err error
		d, err = startDaemon(b.bin, schemaPath, filepath.Join(b.dir, fmt.Sprintf("d%d", i)), b.w.checkpointEvery, b.traced)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, runList(ctx, c, d.base, st.warm, nil)...)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer d.stop()
	phase("setup")

	// The timed window, in slices. Where the mix lacks GET /sources or
	// POST /jobs, a probe chunk follows each slice's window part: a
	// /sources sweep over the probe targets (filled once here), and job
	// submits one at a time, each waiting for its job to finish so no
	// acknowledgement queues behind another job's writes. A traced run
	// records loopback spans in its second half only, so the two halves'
	// throughput difference is the tracing overhead.
	srcKeys := sp.sourcesKeys()
	if !b.w.sourcesInMix {
		all = append(all, runList(ctx, c, d.base, srcKeys, nil)...)
	}
	slices := int(b.window / sliceLen)
	var srcChunk []*request
	for len(srcChunk)*slices < sourcesProbe {
		srcChunk = append(srcChunk, srcKeys...)
	}
	jobChunk := (len(st.probeJobs) + slices - 1) / slices
	var spans *spanLog
	if b.traced {
		spans = newSpanLog()
	}
	var sl []slice
	var acks []sample
	var gc int64
	next := 0
	for i := 0; i < slices; i++ {
		var s slice
		var rec *spanLog
		if b.traced && i >= slices/2 {
			rec = spans
		}
		ticks0, err := d.cpuTicks()
		if err != nil {
			return nil, nil, err
		}
		gc0 := d.gcLines.Load()
		s.win, next = drive(ctx, c, d.base, st, next, sliceLen, rec)
		ticks1, err := d.cpuTicks()
		if err != nil {
			return nil, nil, err
		}
		if rec != nil {
			gc += d.gcLines.Load() - gc0
		}
		s.ticks = ticks1 - ticks0
		all = append(all, s.win.samples...)
		if b.w.sourcesInMix {
			s.sources = s.win.samples
		} else {
			s.sources = runList(ctx, c, d.base, srcChunk, nil)
			all = append(all, s.sources...)
		}
		if b.w.jobsInMix {
			acks = append(acks, s.win.samples...)
		} else {
			chunk, err := probeJobs(ctx, c, d.base, st.probeJobs[min(i*jobChunk, len(st.probeJobs)):min((i+1)*jobChunk, len(st.probeJobs))])
			if err != nil {
				return nil, nil, err
			}
			acks, all = append(acks, chunk...), append(all, chunk...)
		}
		sl = append(sl, s)
	}
	rss, err := d.rssPeakMB()
	if err != nil {
		return nil, nil, err
	}
	phase("window")
	wctx, cancel := context.WithTimeout(ctx, jobsWait)
	jobs, err := waitJobs(wctx, c, d.base)
	cancel()
	if err != nil {
		return nil, nil, err
	}
	phase("jobs")

	failedBefore := countFailed(all)
	wrong, err := checkVerdicts(ctx, ds, all, jobs)
	if err != nil {
		return nil, nil, err
	}
	failed := countFailed(all)
	phase("verify")

	// Per-slice figures; a traced run reports on its traced half.
	timed := sl
	if b.traced {
		timed = sl[slices/2:]
	}
	var rps, readP50, srcP50, cpu []float64
	var reads, srcLat, windowReqs int
	var allReads, allSrc []time.Duration
	var readSlices, srcSlices [][]time.Duration
	for _, s := range timed {
		r := latencies(s.win.samples, readOps...)
		src := latencies(s.sources, opSources)
		rps = append(rps, s.win.rps())
		cpu = append(cpu, float64(s.ticks)/clockTick*1e6/float64(len(s.win.samples)))
		readP50 = append(readP50, ms(quantile(r, 0.5)))
		srcP50 = append(srcP50, ms(quantile(src, 0.5)))
		allReads, allSrc = append(allReads, r...), append(allSrc, src...)
		readSlices, srcSlices = append(readSlices, r), append(srcSlices, src)
		windowReqs += len(s.win.samples)
	}
	reads, srcLat = len(allReads), len(allSrc)
	ackLat := latencies(acks, opJob)
	res := &result{Attempted: len(all), Failed: failed, Correct: wrong == 0, Metrics: map[string]metric{}}
	record := map[string]any{
		"workload": b.w.name, "seed": b.seed, "traced": b.traced,
		"attempted": len(all), "errors": failedBefore, "wrongVerdicts": wrong,
		"slices": len(timed), "windowRequests": windowReqs,
		"samples":      map[string]int{"read": reads, "sources": srcLat, "job_ack": len(ackLat)},
		"sliceRps":     rps,
		"phaseSeconds": phases,
	}
	if msgs := failures(all, 5); len(msgs) > 0 {
		record["firstFailures"] = msgs
		for _, m := range msgs {
			fmt.Fprintln(os.Stderr, "perfbench: failure:", m)
		}
	}
	if reads == 0 || srcLat == 0 || len(ackLat) == 0 {
		return nil, nil, fmt.Errorf("empty sample: %d reads, %d sources, %d job acks", reads, srcLat, len(ackLat))
	}
	cpuPerReq := medianFloat(cpu)
	if !b.traced {
		m := res.Metrics
		m["throughput_rps"] = metric{medianFloat(rps), "1/s"}
		m["read_p50_ms"] = metric{medianFloat(readP50), "ms"}
		m["read_p99_ms"] = metric{p99(readSlices), "ms"}
		m["sources_p50_ms"] = metric{medianFloat(srcP50), "ms"}
		m["sources_p99_ms"] = metric{p99(srcSlices), "ms"}
		m["success_ratio"] = metric{float64(len(all)-failed) / float64(len(all)), "ratio"}
		m["server_cpu_us_per_req"] = metric{cpuPerReq, "us"}
		m["server_rss_peak_mb"] = metric{rss, "MiB"}
		m["setup_s"] = metric{medianFloat(setupS), "s"}
		record["setupSeconds"] = setupS
		return res, record, nil
	}

	lm, err := b.ladder(ctx, ds, sp, st, spans, cpuPerReq)
	if err != nil {
		return nil, nil, err
	}
	phase("ladder")
	var untracedRPS []float64
	for _, s := range sl[:slices/2] {
		untracedRPS = append(untracedRPS, s.win.rps())
	}
	lm["loopback.read_us"] = us(quantile(allReads, 0.5))
	lm["loopback.sources_us"] = us(quantile(allSrc, 0.5))
	lm["loopback.job_ack_us"] = us(quantile(ackLat, 0.5))
	lm["server.gc_cycles_per_kreq"] = float64(gc) * 1000 / float64(windowReqs)
	lm["trace.overhead_pct"] = (medianFloat(untracedRPS) - medianFloat(rps)) / medianFloat(untracedRPS) * 100
	if len(lm) != len(layerUnits) {
		return nil, nil, fmt.Errorf("traced run measured %d per-layer metrics, want %d", len(lm), len(layerUnits))
	}
	if err := spans.write(filepath.Join(filepath.Dir(b.dir), fmt.Sprintf("spans-%s-%d.jsonl", b.w.name, b.seed))); err != nil {
		return nil, nil, err
	}
	for k, v := range lm {
		res.Metrics[k] = metric{v, layerUnits[k]}
	}
	return res, record, nil
}

// jobSettle is how long the job probe waits after a job has finished
// before it submits the next one. dimsatd marks a job done before it
// writes and fsyncs the job's final record, so a submit sent at once
// would sometimes share the disk with that write, and the ack p50 would
// depend on how often the two overlapped.
const jobSettle = 10 * time.Millisecond

// probeJobs submits one job per constraint, one at a time, each jobSettle
// after the previous job has finished, and returns the acknowledgements.
func probeJobs(ctx context.Context, c *http.Client, base string, constraints []string) ([]sample, error) {
	var out []sample
	for _, src := range constraints {
		a := call(ctx, c, base, jobReq(src), nil)
		out = append(out, a)
		if a.err == "" {
			if err := awaitJob(ctx, c, base, a.jobID); err != nil {
				return nil, err
			}
			time.Sleep(jobSettle)
		}
	}
	return out, nil
}

// p99Block is the fewest samples a p99 is taken over: ten beyond it.
const p99Block = 1000

// p99 returns, in ms, the median of the p99s of consecutive blocks of
// slices holding at least p99Block samples each; the last, short block
// joins the one before. A stall then inflates one block's tail rather
// than the whole window's.
func p99(slices [][]time.Duration) float64 {
	var blocks [][]time.Duration
	var cur []time.Duration
	for _, s := range slices {
		cur = append(cur, s...)
		if len(cur) >= p99Block {
			blocks, cur = append(blocks, cur), nil
		}
	}
	if len(blocks) == 0 {
		blocks = [][]time.Duration{cur}
	} else {
		blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
	}
	var out []float64
	for _, b := range blocks {
		out = append(out, ms(quantile(b, 0.99)))
	}
	return medianFloat(out)
}

// readOps are the single-verdict reads behind read_p50_ms and read_p99_ms.
var readOps = []string{opSat, opImplies, opSummarizable, opExplain}

// latencies returns the latencies of the answered samples of the ops.
func latencies(ss []sample, ops ...string) []time.Duration {
	want := map[string]bool{}
	for _, op := range ops {
		want[op] = true
	}
	var out []time.Duration
	for _, s := range ss {
		if want[s.req.op] && s.err == "" {
			out = append(out, s.lat)
		}
	}
	return out
}

func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if s.err != "" {
			n++
		}
	}
	return n
}

func failures(ss []sample, max int) []string {
	var out []string
	for _, s := range ss {
		if s.err != "" && len(out) < max {
			out = append(out, s.err)
		}
	}
	return out
}
