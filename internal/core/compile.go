package core

import (
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"olapdim/internal/constraint"
	"olapdim/internal/schema"
)

// Compiled is a dimension schema compiled for the bitset search engine.
//
// Compile interns the category names of ds.G to dense int32 ids (in
// sorted-name order, so id order coincides with the lexicographic order
// the interpreted search iterates in), flattens the graph and its
// reflexive-transitive closure into []uint64 bitset rows, and
// pre-resolves the per-call constraint indexes that the interpreted
// engine rebuilds on every search (the forced into-edges of
// intoEdgesIn and the relevant-constraint sets of constraint.SigmaFor).
// Passing a Compiled via Options.Compiled makes SatisfiableContext,
// ResumeSatisfiableContext and everything layered on them (Implies,
// Summarizable, Lint, ...) run on the compiled engine, which produces
// bit-for-bit identical Results, Stats, trace events and checkpoints.
//
// A Compiled is immutable after construction and safe for concurrent
// use by any number of searches.
type Compiled struct {
	src *DimensionSchema

	names []string         // id -> category name, sorted (names[allID] == schema.All)
	ids   map[string]int32 // category name -> id
	allID int32
	words int // words per bitset row: bitWords(len(names))

	out   [][]int32 // id -> child ids, in schema insertion order (mirrors G.Out)
	reach []uint64  // flat n×words reflexive-transitive closure of G
	into  [][]int32 // id -> forced parents (into-edges), ascending ids
	edges int

	sigma    []compiledConstraint
	sigmaFor [][]int32 // root id -> indexes into sigma relevant for that root
	consts   map[string][]string

	fpOnce sync.Once
	fp     string

	met *compileCounters

	// Derived compiled schemas for implication queries (the source schema
	// plus one extra constraint), keyed by the extra constraint's string
	// form and evicted FIFO.
	deriveMu    sync.Mutex
	derived     map[string]*Compiled
	deriveOrder []string
	deriveMax   int
}

// compiledConstraint is one Σ entry with its pre-resolved root id.
// structural marks constraints built only from path/rollup/through atoms
// and connectives: on a complete subhierarchy the circle operator decides
// every atom, so CHECK can evaluate them directly over the bitsets
// instead of going through constraint.Reduce.
type compiledConstraint struct {
	expr       constraint.Expr
	root       int32 // -1 when the constraint has no atoms
	structural bool
}

// compileCounters aggregates compile-time metrics. The counters are
// shared between a Compiled schema and every schema derived from it so a
// server can export one set of olapdim_compile_* series per schema.
type compileCounters struct {
	compiles    atomic.Uint64
	compileNano atomic.Int64
	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
}

// CompiledStats is a point-in-time snapshot of a compiled schema's shape
// and of the compile/derive-cache activity since Compile.
type CompiledStats struct {
	Categories  int // categories in the schema graph, including All
	Edges       int // child→parent edges in the schema graph
	Constraints int // constraints in Σ

	Compiles       uint64  // compilations performed (initial + derived)
	CompileSeconds float64 // cumulative wall-clock compile time
	DeriveHits     uint64  // derived-schema cache hits
	DeriveMisses   uint64  // derived-schema cache misses
	DeriveEvictions uint64 // derived-schema cache evictions
}

// deriveCacheMax bounds the per-schema cache of derived (negated
// implication) compilations.
const deriveCacheMax = 256

// Compile builds the compiled bitset form of ds. The schema must
// validate; the error of ds.Validate is returned otherwise. The result
// is pinned to ds by pointer and by fingerprint — passing it alongside a
// different schema fails with ErrCompiledMismatch.
func Compile(ds *DimensionSchema) (*Compiled, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return compileValidated(ds, &compileCounters{})
}

// compileValidated compiles a schema already known to validate, charging
// the work to met.
func compileValidated(ds *DimensionSchema, met *compileCounters) (*Compiled, error) {
	start := time.Now()
	names := ds.G.SortedCategories()
	n := len(names)
	cs := &Compiled{
		src:       ds,
		names:     names,
		ids:       make(map[string]int32, n),
		words:     bitWords(n),
		met:       met,
		deriveMax: deriveCacheMax,
	}
	for i, name := range names {
		cs.ids[name] = int32(i)
	}
	cs.allID = cs.ids[schema.All]

	cs.out = make([][]int32, n)
	for i, name := range names {
		children := ds.G.Out(name)
		if len(children) == 0 {
			continue
		}
		row := make([]int32, len(children))
		for j, p := range children {
			row[j] = cs.ids[p]
		}
		cs.out[i] = row
		cs.edges += len(row)
	}

	// Reflexive-transitive closure of G, one DFS per source.
	cs.reach = make([]uint64, n*cs.words)
	stack := make([]int32, 0, n)
	for c := int32(0); c < int32(n); c++ {
		row := cs.reach[int(c)*cs.words : (int(c)+1)*cs.words]
		bitSet(row, c)
		stack = append(stack[:0], c)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range cs.out[cur] {
				if !bitTest(row, p) {
					bitSet(row, p)
					stack = append(stack, p)
				}
			}
		}
	}

	// Forced into-edges (intoEdgesIn): path-atom edges present in G.
	// IntoEdges returns parents sorted by name, which is ascending-id
	// order under the sorted interning.
	cs.into = make([][]int32, n)
	for c, ps := range constraint.IntoEdges(ds.Sigma) {
		ci, ok := cs.ids[c]
		if !ok {
			continue
		}
		for _, p := range ps {
			if ds.G.HasEdge(c, p) {
				cs.into[ci] = append(cs.into[ci], cs.ids[p])
			}
		}
	}

	cs.sigma = make([]compiledConstraint, len(ds.Sigma))
	for i, e := range ds.Sigma {
		root, err := constraint.Root(e)
		if err != nil {
			return nil, fmt.Errorf("core: compile: %w", err)
		}
		cc := compiledConstraint{expr: e, root: -1, structural: isStructural(e)}
		if root != "" {
			cc.root = cs.ids[root]
		}
		cs.sigma[i] = cc
	}

	// Σ(ds, c) per root category (constraint.SigmaFor): constraints with
	// no atoms, plus those whose root is reachable from c in G.
	cs.sigmaFor = make([][]int32, n)
	for c := 0; c < n; c++ {
		row := cs.reach[c*cs.words : (c+1)*cs.words]
		for i := range cs.sigma {
			if r := cs.sigma[i].root; r < 0 || bitTest(row, r) {
				cs.sigmaFor[c] = append(cs.sigmaFor[c], int32(i))
			}
		}
	}

	cs.consts = constraint.ValueDomains(ds.Sigma)

	met.compiles.Add(1)
	met.compileNano.Add(time.Since(start).Nanoseconds())
	return cs, nil
}

// isStructural reports whether e mentions no equality or order atoms.
func isStructural(e constraint.Expr) bool {
	structural := true
	constraint.Walk(e, func(a constraint.Atom) {
		switch a.(type) {
		case constraint.EqAtom, constraint.CmpAtom:
			structural = false
		}
	})
	return structural
}

// Source returns the dimension schema this form was compiled from.
func (cs *Compiled) Source() *DimensionSchema { return cs.src }

// Fingerprint returns the schema fingerprint (identical to
// Fingerprint(cs.Source())), computed once and cached.
func (cs *Compiled) Fingerprint() string {
	cs.fpOnce.Do(func() {
		cs.fp = schemaFingerprint(cs.src)
	})
	return cs.fp
}

// Stats snapshots the compiled schema's shape and compile activity.
func (cs *Compiled) Stats() CompiledStats {
	return CompiledStats{
		Categories:      len(cs.names),
		Edges:           cs.edges,
		Constraints:     len(cs.sigma),
		Compiles:        cs.met.compiles.Load(),
		CompileSeconds:  float64(cs.met.compileNano.Load()) / 1e9,
		DeriveHits:      cs.met.hits.Load(),
		DeriveMisses:    cs.met.misses.Load(),
		DeriveEvictions: cs.met.evictions.Load(),
	}
}

// Derive compiles the schema obtained by appending extra to Σ, reusing
// the interned graph and closure (which only depend on G). The derived
// schema's Source() is content-identical to the negated schema built by
// ImpliesReduction, so its fingerprint — computed lazily, for checkpoint
// pins only — agrees with the interpreted implication path. Results are
// cached per extra-constraint string with FIFO eviction.
func (cs *Compiled) Derive(extra constraint.Expr) (*Compiled, error) {
	key := extra.String()
	if d, ok := cs.deriveLookup(key); ok {
		return d, nil
	}
	if err := constraint.Validate(extra, cs.src.G); err != nil {
		return nil, fmt.Errorf("core: derive: %w", err)
	}
	sigma := make([]constraint.Expr, 0, len(cs.src.Sigma)+1)
	sigma = append(sigma, cs.src.Sigma...)
	sigma = append(sigma, extra)
	return cs.deriveSigma(key, sigma)
}

// deriveSubset compiles the schema whose Σ is the subset of the source Σ
// selected by keep (ascending original indices), sharing the interned
// graph and the Derive cache. ExplainContext's shrink probes use it so a
// subset probed repeatedly — within one call or across requests —
// compiles once. The cache key is prefixed with a NUL byte, which no
// constraint's rendered form starts with, so subset entries cannot
// collide with Derive's per-constraint entries.
func (cs *Compiled) deriveSubset(keep []int) (*Compiled, error) {
	mask := make([]byte, (len(cs.src.Sigma)+7)/8)
	for _, i := range keep {
		mask[i/8] |= 1 << uint(i%8)
	}
	key := "\x00subset:" + hex.EncodeToString(mask)
	if d, ok := cs.deriveLookup(key); ok {
		return d, nil
	}
	sigma := make([]constraint.Expr, 0, len(keep))
	for _, i := range keep {
		sigma = append(sigma, cs.src.Sigma[i])
	}
	return cs.deriveSigma(key, sigma)
}

// deriveLookup answers a derive-cache probe, counting a hit.
func (cs *Compiled) deriveLookup(key string) (*Compiled, bool) {
	cs.deriveMu.Lock()
	defer cs.deriveMu.Unlock()
	if d, ok := cs.derived[key]; ok {
		cs.met.hits.Add(1)
		return d, true
	}
	return nil, false
}

// deriveSigma compiles a schema sharing cs's graph with Σ = sigma and
// caches it under key with FIFO eviction; the Σ-independent parts
// (interning, adjacency, closure) are reused, everything downstream of Σ
// is rebuilt.
func (cs *Compiled) deriveSigma(key string, sigma []constraint.Expr) (*Compiled, error) {
	start := time.Now()
	ds := &DimensionSchema{G: cs.src.G, Sigma: sigma}

	n := len(cs.names)
	d := &Compiled{
		src:       ds,
		names:     cs.names,
		ids:       cs.ids,
		allID:     cs.allID,
		words:     cs.words,
		out:       cs.out,
		reach:     cs.reach,
		edges:     cs.edges,
		met:       cs.met,
		deriveMax: cs.deriveMax,
	}

	// Σ changed, so everything downstream of Σ is rebuilt: into-edges,
	// compiled constraints, per-root relevance, and value domains (the
	// extra constraint's equality atoms can add constants).
	d.into = make([][]int32, n)
	for c, ps := range constraint.IntoEdges(sigma) {
		ci, ok := d.ids[c]
		if !ok {
			continue
		}
		for _, p := range ps {
			if ds.G.HasEdge(c, p) {
				d.into[ci] = append(d.into[ci], d.ids[p])
			}
		}
	}
	d.sigma = make([]compiledConstraint, len(sigma))
	for i, e := range sigma {
		root, err := constraint.Root(e)
		if err != nil {
			return nil, fmt.Errorf("core: derive: %w", err)
		}
		cc := compiledConstraint{expr: e, root: -1, structural: isStructural(e)}
		if root != "" {
			cc.root = d.ids[root]
		}
		d.sigma[i] = cc
	}
	d.sigmaFor = make([][]int32, n)
	for c := 0; c < n; c++ {
		row := d.reach[c*d.words : (c+1)*d.words]
		for i := range d.sigma {
			if r := d.sigma[i].root; r < 0 || bitTest(row, r) {
				d.sigmaFor[c] = append(d.sigmaFor[c], int32(i))
			}
		}
	}
	d.consts = constraint.ValueDomains(sigma)
	cs.met.compiles.Add(1)
	cs.met.compileNano.Add(time.Since(start).Nanoseconds())

	cs.deriveMu.Lock()
	defer cs.deriveMu.Unlock()
	if prev, ok := cs.derived[key]; ok {
		// Lost a race with a concurrent Derive; keep the first entry.
		cs.met.hits.Add(1)
		return prev, nil
	}
	cs.met.misses.Add(1)
	if cs.derived == nil {
		cs.derived = make(map[string]*Compiled, cs.deriveMax)
	}
	cs.derived[key] = d
	cs.deriveOrder = append(cs.deriveOrder, key)
	for len(cs.deriveOrder) > cs.deriveMax {
		victim := cs.deriveOrder[0]
		// Clear the slot: the backing array outlives the reslice, and an
		// evicted key is a whole constraint rendering.
		cs.deriveOrder[0] = ""
		cs.deriveOrder = cs.deriveOrder[1:]
		delete(cs.derived, victim)
		cs.met.evictions.Add(1)
	}
	return d, nil
}
