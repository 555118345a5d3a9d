package main

import (
	"context"
	"testing"
)

// exactCounters replays a workload's stream prefix through the facade and
// its job probe through an in-process job store, and returns the work
// counters that must repeat exactly for a fixed seed.
func exactCounters(t *testing.T, w *workload, seed int64) map[string]float64 {
	t.Helper()
	ds := family(w.categories)
	st := newStream(w, newSpace(ds), seed)
	m, err := replayCore(context.Background(), ds, st, replayReads(st), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	jm, err := jobRung(st.probeJobs[:ladderJobs], ds, w.checkpointEvery, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]float64{
		"core.expansions_per_req":        m["core.expansions_per_req"],
		"core.cache_hit_ratio":           m["core.cache_hit_ratio"],
		"jobs.checkpoint_writes_per_job": jm["jobs.checkpoint_writes_per_job"],
	}
}

// TestExactCountersRepeat is the determinism check: two replays of one
// seed give bit-identical work counters on every workload.
func TestExactCountersRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a, b := exactCounters(t, w, 42), exactCounters(t, w, 42)
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s = %v then %v", name, k, v, b[k])
			}
		}
		t.Logf("%s seed 42: %v", name, a)
	}
}

// TestSecondSeedKeepsCharacter checks on a seed other than the one the
// workloads were tuned on that each keeps its character: hot-mix reads hit
// the verdict cache, cold-implies misses it and spends most of the
// in-process handler time in the engine, and jobs-mixed writes
// checkpoints.
func TestSecondSeedKeepsCharacter(t *testing.T) {
	const seed = 7
	if r := exactCounters(t, workloads["hot-mix"], seed)["core.cache_hit_ratio"]; r < 0.99 {
		t.Errorf("hot-mix cache hit ratio %v, want >= 0.99", r)
	}
	if r := exactCounters(t, workloads["cold-implies"], seed)["core.cache_hit_ratio"]; r > 0.01 {
		t.Errorf("cold-implies cache hit ratio %v, want <= 0.01", r)
	}
	if n := exactCounters(t, workloads["jobs-mixed"], seed)["jobs.checkpoint_writes_per_job"]; n < 1 {
		t.Errorf("jobs-mixed writes %v checkpoints per job, want >= 1", n)
	}

	w := workloads["cold-implies"]
	ds := family(w.categories)
	b := &bench{w: w, seed: seed, dir: t.TempDir()}
	spans := newSpanLog()
	if _, err := b.ladder(context.Background(), ds, newSpace(ds), newStream(w, newSpace(ds), seed), spans, 1); err != nil {
		t.Fatal(err)
	}
	core, srv := mean(spans.all("core.call")), mean(spans.all("server.ServeHTTP"))
	if share := float64(core) / float64(srv); share <= 0.5 {
		t.Errorf("cold-implies: facade %v of ServeHTTP %v per request, want more than half", core, srv)
	} else {
		t.Logf("cold-implies: facade %v of ServeHTTP %v per request (%.2f)", core, srv, share)
	}
}
