package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"olapdim/internal/constraint"
	"olapdim/internal/faults"
	"olapdim/internal/frozen"
	"olapdim/internal/schema"
)

// ErrBudgetExceeded reports that a DIMSAT run hit its Options.MaxExpansions
// budget before deciding the query. The Result returned alongside it
// carries the partial Stats of the truncated search. Test with errors.Is.
var ErrBudgetExceeded = errors.New("core: DIMSAT expansion budget exceeded")

// Options configure the DIMSAT search. The zero value enables every
// heuristic, runs without budget or shared cache, and sizes worker pools
// to GOMAXPROCS — exactly the pre-context behavior. The ablation switches
// exist for experiment E6.
type Options struct {
	// DisableIntoPruning turns off the Section 5 heuristic that forces
	// into-constrained edges into every expansion, shrinking the subset
	// loop of EXPAND.
	DisableIntoPruning bool
	// DisableStructurePruning turns off the incremental cycle/shortcut
	// pruning of EXPAND; candidate subhierarchies are then rejected only
	// at CHECK time (Proposition 2 still guarantees correctness).
	DisableStructurePruning bool
	// Tracer, when non-nil, observes every EXPAND and CHECK step. A
	// tracer forces sequential execution on the batch surfaces and
	// bypasses the shared cache, since cache hits would skip the steps
	// the tracer wants to see.
	Tracer Tracer

	// MaxExpansions bounds the EXPAND steps of a single DIMSAT run;
	// 0 means unlimited. A run that exhausts the budget returns
	// ErrBudgetExceeded with the partial Stats accumulated so far.
	MaxExpansions int
	// Deadline, when non-zero, bounds the wall-clock time of a single
	// call: the search context is derived with this deadline and the run
	// returns context.DeadlineExceeded once it passes. Prefer passing a
	// context with a deadline to the ...Context entry points; this knob
	// exists for callers of the non-context wrappers.
	Deadline time.Time
	// Parallelism caps the worker pool of the batch surfaces
	// (SummarizabilityMatrix, MinimalSources, UnsatisfiableCategories,
	// Lint): 0 means GOMAXPROCS, 1 forces serial execution.
	Parallelism int
	// Cache, when non-nil, memoizes satisfiability results across calls,
	// keyed by (schema fingerprint, root category), and implication
	// verdicts, keyed by (schema fingerprint, α, root). Safe for concurrent
	// use; share one cache across goroutines and requests to solve
	// repeated roots once.
	Cache *SatCache
	// Faults, when non-nil, arms deterministic fault injection at the
	// instrumented sites (see package faults): the sat-cache lookup, each
	// worker-pool task, and each EXPAND step. Nil in production; tests
	// use it to force exact failure schedules.
	Faults *faults.Injector
	// Checkpoint, when non-nil, makes the DIMSAT search durable: its Sink
	// receives a snapshot of the search position every Every EXPAND steps,
	// and a run aborted by cancellation, deadline, budget, or an injected
	// fault error captures its final position in Result.Checkpoint so the
	// caller can continue it later with ResumeSatisfiableContext.
	Checkpoint *Checkpointing
	// Effort, when non-nil, accumulates the Stats of every DIMSAT run
	// executed under these options — including batch fan-outs and aborted
	// runs, excluding cache hits. The server installs one per request to
	// measure per-request search effort.
	Effort *EffortSink
	// Pool, when non-nil, observes the batch-surface worker pool: batch
	// fan-outs, task starts, and task completions with latency.
	Pool PoolObserver

	// Compiled, when non-nil, runs searches on the compiled bitset engine
	// built by Compile instead of the interpreted one. It must stem from
	// the same dimension schema passed alongside it — verified by pointer
	// or by fingerprint, with ErrCompiledMismatch on disagreement. Both
	// engines produce identical Results, Stats, trace events and
	// checkpoints; checkpoints resume interchangeably across engines.
	// EnumerateFrozenContext ignores this field and always runs
	// interpreted.
	Compiled *Compiled

	// Provenance, when set, makes the search accumulate its touched set —
	// the categories, edges and Σ indices it actually consulted — into
	// Result.Provenance. Provenance-enabled runs bypass the shared cache
	// (like traced runs: a hit would skip the steps being observed), and
	// both engines produce identical provenance. Costs one pointer test
	// per marking site when unset.
	Provenance bool
	// ShrinkObserver, when non-nil, observes every unsat-core shrink
	// probe executed by ExplainContext: which Σ index the probe tried to
	// drop, whether it was proven redundant, and the probe's effort and
	// timing. Ignored by every other entry point. The server installs one
	// per /explain request to emit per-probe spans and metrics.
	ShrinkObserver func(ShrinkProbe)
}

// ErrCompiledMismatch reports that Options.Compiled was built from a
// different schema than the one passed to the call. Test with errors.Is.
var ErrCompiledMismatch = errors.New("core: compiled schema does not match the dimension schema")

// compiledFor validates opts.Compiled against ds: nil passes through,
// pointer identity is accepted immediately, and anything else must agree
// on the schema fingerprint.
func compiledFor(ds *DimensionSchema, opts Options) (*Compiled, error) {
	cs := opts.Compiled
	if cs == nil {
		return nil, nil
	}
	if cs.src == ds {
		return cs, nil
	}
	if cs.Fingerprint() != schemaFingerprint(ds) {
		return nil, fmt.Errorf("%w: compiled %.12s.. vs schema %.12s..",
			ErrCompiledMismatch, cs.Fingerprint(), schemaFingerprint(ds))
	}
	return cs, nil
}

// Tracer observes a DIMSAT execution; used to reproduce the Figure 7 trace
// and to debug schemas.
type Tracer interface {
	// Expand is called after ctop has been expanded with parents R.
	Expand(g *frozen.Subhierarchy, ctop string, R []string)
	// Check is called when a complete subhierarchy is tested; induced
	// reports whether it induced a frozen dimension.
	Check(g *frozen.Subhierarchy, induced bool)
}

// Stats counts the work performed by one DIMSAT run.
type Stats struct {
	// Expansions counts EXPAND steps (edge-set extensions explored).
	Expansions int
	// Checks counts complete subhierarchies handed to CHECK.
	Checks int
	// DeadEnds counts expansions abandoned by the pruning rules.
	DeadEnds int
}

// Add accumulates t into s; used to aggregate effort across runs.
func (s *Stats) Add(t Stats) {
	s.Expansions += t.Expansions
	s.Checks += t.Checks
	s.DeadEnds += t.DeadEnds
}

// Result reports the outcome of a satisfiability or implication query.
type Result struct {
	// Satisfiable reports whether the queried category is satisfiable
	// (for Implies, whether the counterexample category was satisfiable).
	Satisfiable bool
	// Witness is a frozen dimension witnessing satisfiability, nil when
	// unsatisfiable.
	Witness *frozen.Frozen
	// Stats describes the search effort.
	Stats Stats
	// Checkpoint, when non-nil, is the resumable position at which the run
	// aborted. It is captured only when Options.Checkpoint is installed and
	// the abort was orderly (context cancellation, deadline, budget, or an
	// injected fault error — not a panic); pass it to
	// ResumeSatisfiableContext to continue the search.
	Checkpoint *Checkpoint
	// Provenance is the touched set of the run, collected only when
	// Options.Provenance is set; nil otherwise. Aborted runs carry the
	// partial touched set accumulated before the abort.
	Provenance *Provenance
}

// Satisfiable decides category satisfiability with the DIMSAT algorithm
// (Figure 6): it explores cycle- and shortcut-free subhierarchies of G
// rooted at c, pruning with into constraints, and tests each complete
// subhierarchy with CHECK (Proposition 2). By Theorem 3, c is satisfiable
// iff some subhierarchy induces a frozen dimension.
//
// Satisfiable is SatisfiableContext with a background context.
func Satisfiable(ds *DimensionSchema, c string, opts Options) (Result, error) {
	return SatisfiableContext(context.Background(), ds, c, opts)
}

// SatisfiableContext is Satisfiable under a context: the search checks
// cancellation and the Options budget before every EXPAND step, so a
// canceled context or an exhausted MaxExpansions budget aborts the run
// within one step, returning ctx.Err() or ErrBudgetExceeded together with
// the partial Stats accumulated so far. With opts.Cache set (and no
// Tracer), results are memoized by (schema fingerprint, root category) and
// concurrent calls for the same key solve it once. A panic anywhere in the
// search is recovered and returned as an *InternalError (ErrInternal).
func SatisfiableContext(ctx context.Context, ds *DimensionSchema, c string, opts Options) (_ Result, err error) {
	defer recoverAsInternal(&err)
	root, ok := ds.G.Intern(c)
	if !ok {
		return Result{}, fmt.Errorf("core: unknown category %q", c)
	}
	if root == schema.All {
		// Proposition 1: the trivial instance witnesses satisfiability.
		g := frozen.NewSubhierarchy(schema.All)
		res := Result{Satisfiable: true, Witness: &frozen.Frozen{G: g, Assign: frozen.Assignment{}}}
		if opts.Provenance {
			res.Provenance = trivialProvenance()
		}
		return res, nil
	}
	cs, err := compiledFor(ds, opts)
	if err != nil {
		return Result{}, err
	}
	ctx, cancel := withOptionsDeadline(ctx, opts)
	defer cancel()
	if cached(opts) {
		if err := opts.Faults.Hit(faults.SiteCacheLookup); err != nil {
			return Result{}, fmt.Errorf("core: sat-cache: %w", err)
		}
		key := satCacheKey{schema: fingerprintOf(ds, cs), root: root}
		return opts.Cache.lookup(ctx, key, func() (Result, error) {
			return runSatisfiable(ctx, ds, root, opts)
		})
	}
	return runSatisfiable(ctx, ds, root, opts)
}

// cached reports whether a call under opts goes through the shared
// cache: traced and provenance-enabled runs bypass it, since a hit would
// skip the steps they observe.
func cached(opts Options) bool {
	return opts.Cache != nil && opts.Tracer == nil && !opts.Provenance
}

// fingerprintOf is the cache fingerprint of ds. The compiled form
// memoizes it, hoisting the per-lookup schema hash of the interpreted
// path.
func fingerprintOf(ds *DimensionSchema, cs *Compiled) string {
	if cs != nil {
		return cs.Fingerprint()
	}
	return schemaFingerprint(ds)
}

// runSatisfiable executes one uncached DIMSAT search on whichever engine
// the options select. Options.Compiled is assumed validated by the entry
// point (compiledFor).
func runSatisfiable(ctx context.Context, ds *DimensionSchema, c string, opts Options) (Result, error) {
	if opts.Compiled != nil {
		return runSatisfiableCompiled(ctx, opts.Compiled, c, opts)
	}
	s := newSearch(ctx, ds, c, opts)
	s.walk(frozen.NewSubhierarchy(c), s.check)
	opts.Effort.add(s.stats)
	var prov *Provenance
	if s.prov != nil {
		prov = s.prov.finalize()
	}
	if s.err != nil {
		return Result{Stats: s.stats, Checkpoint: s.cp, Provenance: prov}, s.err
	}
	return Result{Satisfiable: s.witness != nil, Witness: s.witness, Stats: s.stats, Provenance: prov}, nil
}

// withOptionsDeadline derives a context carrying opts.Deadline when set.
// The returned cancel func is always non-nil.
func withOptionsDeadline(ctx context.Context, opts Options) (context.Context, context.CancelFunc) {
	if opts.Deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, opts.Deadline)
}

// EnumerateFrozen lists every frozen dimension of ds with the given root
// using the DIMSAT search (pruned, hence much faster than the naive
// enumeration in package frozen). Assignments are canonicalized to the
// categories mentioned by surviving equality atoms.
//
// EnumerateFrozen is EnumerateFrozenContext with a background context.
func EnumerateFrozen(ds *DimensionSchema, root string, opts Options) ([]*frozen.Frozen, error) {
	return EnumerateFrozenContext(context.Background(), ds, root, opts)
}

// EnumerateFrozenContext is EnumerateFrozen under a context and the
// Options budget; a truncated enumeration returns the error with nil
// results.
func EnumerateFrozenContext(ctx context.Context, ds *DimensionSchema, root string, opts Options) (_ []*frozen.Frozen, err error) {
	defer recoverAsInternal(&err)
	if !ds.G.HasCategory(root) {
		return nil, fmt.Errorf("core: unknown category %q", root)
	}
	ctx, cancel := withOptionsDeadline(ctx, opts)
	defer cancel()
	s := newSearch(ctx, ds, root, opts)
	seen := map[string]bool{}
	var out []*frozen.Frozen
	s.walk(frozen.NewSubhierarchy(root), func(g *frozen.Subhierarchy) bool {
		s.stats.Checks++
		if !g.Acyclic() || !g.ShortcutFree() {
			return true
		}
		residual, ok := frozen.Circle(s.sigma, g)
		if !ok {
			return true
		}
		for _, a := range frozen.EnumerateAssignments(residual, s.consts) {
			f := &frozen.Frozen{G: g.Clone(), Assign: a}
			if !seen[f.Key()] {
				seen[f.Key()] = true
				out = append(out, f)
			}
		}
		return true
	})
	opts.Effort.add(s.stats)
	if s.err != nil {
		return nil, s.err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, nil
}

// search carries the immutable inputs and mutable statistics of one DIMSAT
// run.
type search struct {
	ctx    context.Context
	ds     *DimensionSchema
	root   string
	sigma  []constraint.Expr
	consts map[string][]string
	into   map[string][]string
	opts   Options

	stats   Stats
	witness *frozen.Frozen
	// structured is opts.Tracer's StructuredTracer side, resolved once so
	// the per-step type assertion leaves the hot path.
	structured StructuredTracer
	// err records why the search aborted early (context cancellation or
	// budget exhaustion); nil for completed searches.
	err error
	// path is the decision stack: the subset mask of every EXPAND frame
	// currently on the stack, outermost first. Maintained only so abort
	// and periodic checkpoints can snapshot the position; push/pop is a
	// slice append either way, cheap enough to keep unconditional.
	path []uint64
	// cp is the final position captured when the search aborts resumably;
	// surfaced as Result.Checkpoint.
	cp *Checkpoint
	// fp memoizes the schema fingerprint for snapshots (checkpointing runs
	// only; hashing the schema per checkpoint would dominate small Everys).
	fp string
	// prov collects the touched set; nil unless Options.Provenance.
	// sigmaIdx and sigmaRoots align with s.sigma: the original Σ index
	// and root category of each relevant constraint, resolved once so
	// CHECK-time marking mirrors the compiled engine's vacuity test.
	prov       *provCollector
	sigmaIdx   []int
	sigmaRoots []string
}

func newSearch(ctx context.Context, ds *DimensionSchema, root string, opts Options) *search {
	s := &search{
		ctx:    ctx,
		ds:     ds,
		root:   root,
		sigma:  constraint.SigmaFor(ds.Sigma, ds.G, root),
		consts: constraint.ValueDomains(ds.Sigma),
		opts:   opts,
	}
	if !opts.DisableIntoPruning {
		s.into = intoEdgesIn(ds)
	}
	if opts.Checkpoint != nil {
		s.fp = schemaFingerprint(ds)
	}
	if opts.Provenance {
		s.prov = newProvCollector(root)
		s.sigmaIdx = sigmaIndicesFor(ds.Sigma, ds.G, root)
		s.sigmaRoots = sigmaRootsOf(ds.Sigma, s.sigmaIdx)
	}
	s.structured, _ = opts.Tracer.(StructuredTracer)
	return s
}

// deadEnd counts an abandoned branch and reports it to the structured
// tracer with the heuristic that pruned it.
func (s *search) deadEnd(ctop, heuristic string) {
	s.stats.DeadEnds++
	if s.prov != nil {
		s.prov.markFrontier(ctop)
	}
	if s.structured != nil {
		s.structured.PruneStep(len(s.path), ctop, heuristic)
	}
}

// snapshot captures the current search position: the decision stack plus
// the next mask to try in the innermost frame.
func (s *search) snapshot(next uint64) *Checkpoint {
	return &Checkpoint{
		Version:          CheckpointVersion,
		Schema:           s.fp,
		Root:             s.root,
		IntoPruning:      !s.opts.DisableIntoPruning,
		StructurePruning: !s.opts.DisableStructurePruning,
		Path:             append([]uint64(nil), s.path...),
		Next:             next,
		Stats:            s.stats,
	}
}

// abort records why the search stopped and, when checkpointing is
// installed, the resumable position it stopped at.
func (s *search) abort(err error, next uint64) {
	s.err = err
	if s.opts.Checkpoint != nil {
		s.cp = s.snapshot(next)
	}
}

// maybeCheckpoint feeds the periodic sink; called right after an EXPAND
// step is counted, when the position is (s.path, next mask 0). A sink
// failure aborts the search — durable progress that cannot be persisted is
// not progress — with the unsaved snapshot in Result.Checkpoint.
func (s *search) maybeCheckpoint() bool {
	ck := s.opts.Checkpoint
	if ck == nil || ck.Sink == nil || ck.Every <= 0 || s.stats.Expansions%ck.Every != 0 {
		return true
	}
	cp := s.snapshot(0)
	if err := ck.Sink(cp); err != nil {
		s.err = fmt.Errorf("core: checkpoint sink: %w", err)
		s.cp = cp
		return false
	}
	return true
}

// overBudget consults the fault injector, the context and the expansion
// budget; it is called before every EXPAND step so an abort takes effect
// within one step. next is the mask the caller was about to try, completing
// the checkpointable position. The abort reason is recorded in s.err and
// the whole search unwinds. The injector runs first: an injected latency
// stalls the step and the context check below then observes a passed
// deadline, which is exactly the "search stalls" scenario robustness tests
// force.
func (s *search) overBudget(next uint64) bool {
	if s.err != nil {
		return true
	}
	if err := s.opts.Faults.Hit(faults.SiteExpand); err != nil {
		s.abort(err, next)
		return true
	}
	if err := s.ctx.Err(); err != nil {
		s.abort(err, next)
		return true
	}
	if s.opts.MaxExpansions > 0 && s.stats.Expansions >= s.opts.MaxExpansions {
		s.abort(fmt.Errorf("%w after %d expansions", ErrBudgetExceeded, s.stats.Expansions), next)
		return true
	}
	return false
}

// intoEdgesIn extracts the forced edges implied by into constraints,
// keeping only those that are actual schema edges (a non-edge path atom
// makes its constraint unsatisfiable for populated roots, which CHECK
// handles; forcing a non-edge would be unsound here).
func intoEdgesIn(ds *DimensionSchema) map[string][]string {
	raw := constraint.IntoEdges(ds.Sigma)
	out := map[string][]string{}
	for c, ps := range raw {
		for _, p := range ps {
			if ds.G.HasEdge(c, p) {
				out[c] = append(out[c], p)
			}
		}
	}
	return out
}

// tops returns the categories of g with no outgoing edges, sorted.
func tops(g *frozen.Subhierarchy) []string {
	var out []string
	for _, c := range g.Categories() {
		if len(g.Out(c)) == 0 {
			out = append(out, c)
		}
	}
	return out
}

// walk implements the EXPAND procedure of Figure 6, invoking onComplete at
// every complete subhierarchy (g.Top = {All}). onComplete and walk return
// false to abort the whole search. The subhierarchy passed to onComplete
// is reused across calls; callers that retain it must Clone it.
func (s *search) walk(g *frozen.Subhierarchy, onComplete func(*frozen.Subhierarchy) bool) bool {
	return s.walkFrom(g, onComplete, nil, 0)
}

// failResume aborts the search because a checkpoint's decision stack does
// not replay against this schema: a mask that is out of range, lands on a
// pruned or empty subset, or descends past a complete subhierarchy. The
// fingerprint pin makes this unreachable for honest checkpoints; it guards
// against storage corruption below the checksum layer.
func (s *search) failResume(format string, args ...any) bool {
	s.err = fmt.Errorf("%w: %s", ErrBadCheckpoint, fmt.Sprintf(format, args...))
	return false
}

// walkFrom is walk with a resume position. replay holds the masks of the
// expansions between here and the suspended frame, outermost first: each is
// re-applied silently (edges added, no stats, no tracer, no checkpoints)
// before the enumeration continues past it. next is the first mask to try
// in the frame below the last replayed expansion. A fresh walk passes
// (nil, 0) and behaves exactly as before.
func (s *search) walkFrom(g *frozen.Subhierarchy, onComplete func(*frozen.Subhierarchy) bool, replay []uint64, next uint64) bool {
	replaying := len(replay) > 0
	start := next
	if replaying {
		start = replay[0]
	}
	if s.overBudget(start) {
		return false
	}
	t := tops(g)
	if len(t) == 1 && t[0] == schema.All {
		if replaying {
			return s.failResume("path descends past a complete subhierarchy")
		}
		return onComplete(g)
	}
	// Choose the lexicographically first unexpanded category (not All) so
	// executions and traces are deterministic.
	ctop := ""
	for _, c := range t {
		if c != schema.All {
			ctop = c
			break
		}
	}
	if ctop == "" {
		// Every category has out-edges but All is absent: only reachable
		// with structure pruning disabled, when a cycle swallowed the
		// frontier. Dead end.
		if replaying {
			return s.failResume("path descends into a cyclic dead end")
		}
		s.deadEnd(schema.All, "cycle-frontier")
		return true
	}

	outG := s.ds.G.Out(ctop)
	var candidates []string
	// reachableOf caches, for candidates already in g, the set of
	// categories they reach — used to veto sibling pairs (r1, r2) with
	// r1 ↗'* r2, where the new edge (ctop, r2) would be a shortcut via
	// r1. Figure 6 omits this case; see DESIGN.md.
	var reachableOf map[string]map[string]bool
	if s.opts.DisableStructurePruning {
		candidates = append(candidates, outG...)
	} else {
		// One backward traversal answers both structural vetoes of
		// Figure 6 lines (11)-(12): reaching = {b : b ↗'* ctop}.
		reaching := g.ReachingSet(ctop)
		for _, c := range outG {
			if g.HasCategory(c) && reaching[c] {
				continue // cycle: c already reaches ctop
			}
			if g.AnyParentIn(c, reaching) {
				continue // shortcut: some b ↗'* ctop has the edge b -> c
			}
			candidates = append(candidates, c)
		}
		reachableOf = map[string]map[string]bool{}
		for _, c := range candidates {
			if g.HasCategory(c) {
				reachableOf[c] = g.ReachableSet(c)
			}
		}
	}

	into := s.into[ctop]
	// Line (15) of Figure 6: a forced edge that was pruned, or no legal
	// parents at all, is a dead end.
	if len(candidates) == 0 || !containsAll(candidates, into) {
		if replaying {
			return s.failResume("path descends into a dead end at %s", ctop)
		}
		s.deadEnd(ctop, "into")
		return true
	}

	var free []string
	for _, c := range candidates {
		if !contains(into, c) {
			free = append(free, c)
		}
	}

	// Enumerate R = S' ∪ Into over subsets S' ⊆ free; R must be non-empty.
	// The subhierarchy is mutated in place and reverted after each branch
	// (cloning per subset dominated the profile); aborting the search
	// (walk returning false) skips the revert, which is safe because the
	// whole search unwinds immediately and any retained witness is cloned.
	n := len(free)
	limit := uint64(1) << uint(n)
	if start >= limit && start > 0 {
		return s.failResume("mask %d out of range at %s (%d free candidates)", start, ctop, n)
	}
	newCat := make([]bool, 0, len(into)+n)
	for mask := start; mask < limit; mask++ {
		// The first iteration of a resumed frame replays the recorded
		// decision silently; every later mask is explored normally.
		silent := replaying && mask == start
		R := append([]string(nil), into...)
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				R = append(R, free[i])
			}
		}
		if len(R) == 0 {
			if silent {
				return s.failResume("path records an empty expansion at %s", ctop)
			}
			continue
		}
		if reachableOf != nil && conflictingPair(R, reachableOf) {
			if silent {
				return s.failResume("path records a pruned expansion at %s", ctop)
			}
			s.deadEnd(ctop, "sibling-shortcut")
			continue
		}
		if !silent && s.overBudget(mask) {
			return false
		}
		newCat = newCat[:0]
		for _, p := range R {
			newCat = append(newCat, g.AddEdgeUndoable(ctop, p))
			if s.prov != nil {
				s.prov.markEdge(ctop, p)
			}
		}
		s.path = append(s.path, mask)
		if silent {
			if !s.walkFrom(g, onComplete, replay[1:], next) {
				return false
			}
		} else {
			s.stats.Expansions++
			if s.opts.Tracer != nil {
				s.opts.Tracer.Expand(g, ctop, R)
			}
			if s.structured != nil {
				s.structured.ExpandStep(len(s.path), ctop, R)
			}
			if !s.maybeCheckpoint() {
				return false
			}
			if !s.walkFrom(g, onComplete, nil, 0) {
				return false
			}
		}
		s.path = s.path[:len(s.path)-1]
		for i := len(R) - 1; i >= 0; i-- {
			g.RemoveEdge(ctop, R[i], newCat[i])
		}
	}
	return true
}

// conflictingPair reports whether R contains distinct r1, r2 with
// r1 ↗'* r2 in the current subhierarchy.
func conflictingPair(R []string, reachableOf map[string]map[string]bool) bool {
	for _, a := range R {
		ra := reachableOf[a]
		if ra == nil {
			continue
		}
		for _, b := range R {
			if a != b && ra[b] {
				return true
			}
		}
	}
	return false
}

// check implements CHECK (Figure 6) via Proposition 2. It returns false to
// abort the search once a witness is found.
func (s *search) check(g *frozen.Subhierarchy) bool {
	s.stats.Checks++
	if s.prov != nil {
		// A relevant constraint is consulted by this CHECK unless it is
		// vacuously true because its root is outside g (Definition 4) —
		// the same test the compiled engine's CHECK skips on.
		for i, root := range s.sigmaRoots {
			if root == "" || g.HasCategory(root) {
				s.prov.markSigma(s.sigmaIdx[i])
			}
		}
	}
	f, ok := frozen.Induces(g, s.sigma, s.consts)
	if s.opts.Tracer != nil {
		s.opts.Tracer.Check(g, ok)
	}
	if s.structured != nil {
		s.structured.CheckStep(len(s.path), ok)
	}
	if !ok {
		return true
	}
	// The search mutates g in place on backtracking; the witness must own
	// its subhierarchy.
	s.witness = &frozen.Frozen{G: f.G.Clone(), Assign: f.Assign}
	return false
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func containsAll(xs, ys []string) bool {
	for _, y := range ys {
		if !contains(xs, y) {
			return false
		}
	}
	return true
}
