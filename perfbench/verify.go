package main

import (
	"context"
	"fmt"
	"sync"

	"olapdim"
)

// decider answers requests in process through the olapdim facade, on the
// compiled schema and a verdict cache of its own.
type decider struct {
	ds   *olapdim.DimensionSchema
	opts olapdim.Options
}

func newDecider(ds *olapdim.DimensionSchema) (*decider, error) {
	cs, err := olapdim.Compile(ds)
	if err != nil {
		return nil, err
	}
	return &decider{
		ds:   cs.Source(),
		opts: olapdim.Options{Compiled: cs, Cache: olapdim.NewSatCache(), Effort: new(olapdim.EffortSink)},
	}, nil
}

// decide returns the canonical verdict of r.
func (d *decider) decide(ctx context.Context, r *request) (string, error) {
	switch r.op {
	case opSat:
		res, err := olapdim.SatisfiableContext(ctx, d.ds, r.category, d.opts)
		return satVerdict(res.Satisfiable), err
	case opImplies, opJob:
		alpha, err := olapdim.ParseConstraint(r.constraint)
		if err != nil {
			return "", err
		}
		implied, _, err := olapdim.ImpliesContext(ctx, d.ds, alpha, d.opts)
		return impliesVerdict(implied), err
	case opSummarizable:
		rep, err := olapdim.SummarizableContext(ctx, d.ds, r.target, r.from, d.opts)
		if err != nil {
			return "", err
		}
		bottoms := make([]string, len(rep.PerBottom))
		implied := make([]bool, len(rep.PerBottom))
		for i, b := range rep.PerBottom {
			bottoms[i], implied[i] = b.Bottom, b.Implied
		}
		return summarizableVerdict(rep.Summarizable(), bottoms, implied), nil
	case opSources:
		srcs, err := olapdim.MinimalSourcesContext(ctx, d.ds, r.target, sourcesMax, d.opts)
		return sourcesVerdict(srcs), err
	case opExplain:
		ex, err := olapdim.ExplainContext(ctx, d.ds, r.category, d.opts)
		if err != nil {
			return "", err
		}
		var core []int
		if !ex.Satisfiable {
			core = ex.Core
		}
		return explainVerdict(ex.Satisfiable, core), nil
	}
	return "", fmt.Errorf("unknown operation %q", r.op)
}

// checkVerdicts re-decides every distinct answered read in samples in
// process with a fresh cache, and every acknowledged job against its
// final state in jobs. It marks each sample whose answer disagrees (or
// whose job did not finish with the expected verdict) as failed and
// returns how many it marked.
func checkVerdicts(ctx context.Context, ds *olapdim.DimensionSchema, samples []sample, jobs []jobView) (int, error) {
	byID := map[string]jobView{}
	for _, j := range jobs {
		byID[j.ID] = j
	}
	// Distinct requests are decided once, on two workers: after the
	// window the daemon is idle and the host has two CPUs.
	var keys []*request
	want := map[string]string{}
	for _, s := range samples {
		if s.err != "" {
			continue
		}
		if _, ok := want[s.req.key()]; !ok {
			want[s.req.key()] = ""
			keys = append(keys, s.req)
		}
	}
	got := make([]string, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		d, err := newDecider(ds)
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(keys); i += clients {
				got[i], errs[i] = d.decide(ctx, keys[i])
			}
		}(w)
	}
	wg.Wait()
	for i, r := range keys {
		if errs[i] != nil {
			return 0, fmt.Errorf("deciding %s in process: %w", r.key(), errs[i])
		}
		want[r.key()] = got[i]
	}
	wrong := 0
	for i := range samples {
		s := &samples[i]
		if s.err != "" {
			continue
		}
		w := want[s.req.key()]
		if s.req.op == opJob {
			j, ok := byID[s.jobID]
			switch {
			case !ok:
				s.err = fmt.Sprintf("job %s missing from GET /jobs", s.jobID)
			case j.State != "done" || j.Result == nil || j.Result.Implied == nil:
				s.err = fmt.Sprintf("job %s ended %s %s", s.jobID, j.State, j.Error)
			case impliesVerdict(*j.Result.Implied) != w:
				s.err = fmt.Sprintf("job %s: %s, in process %s", s.jobID, impliesVerdict(*j.Result.Implied), w)
			}
		} else if s.verdict != w {
			s.err = fmt.Sprintf("wrong verdict for %s: served %s, in process %s", s.req.key(), s.verdict, w)
		}
		if s.err != "" {
			wrong++
		}
	}
	return wrong, nil
}
