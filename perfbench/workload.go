package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"sync"

	"olapdim"
	"olapdim/internal/constraint"
	"olapdim/internal/gen"
)

// Operation names. Every operation except opJob is a single-verdict read
// answered synchronously; opJob is POST /jobs, acknowledged with 202 and
// decided in the background.
const (
	opSat          = "sat"
	opImplies      = "implies"
	opSummarizable = "summarizable"
	opSources      = "sources"
	opExplain      = "explain"
	opJob          = "job"
)

// request is one planned request: the HTTP form the client sends and the
// decoded fields the in-process rungs and the verdict check call the
// facade with.
type request struct {
	op     string
	method string
	path   string
	body   string

	category   string   // sat, explain
	constraint string   // implies, job
	target     string   // summarizable, sources
	from       []string // summarizable
}

// key identifies a request for deduplicating verdict checks.
func (r *request) key() string { return r.method + " " + r.path + " " + r.body }

func satReq(c string) *request {
	return &request{op: opSat, method: "GET", path: "/sat?category=" + url.QueryEscape(c), category: c}
}

func explainReq(c string) *request {
	return &request{op: opExplain, method: "GET", path: "/explain?category=" + url.QueryEscape(c), category: c}
}

func impliesReq(src string) *request {
	return &request{op: opImplies, method: "POST", path: "/implies", body: mustJSON(map[string]string{"constraint": src}), constraint: src}
}

func jobReq(src string) *request {
	return &request{op: opJob, method: "POST", path: "/jobs", body: mustJSON(map[string]string{"kind": "implies", "constraint": src}), constraint: src}
}

func summarizableReq(target string, from []string) *request {
	return &request{op: opSummarizable, method: "POST", path: "/summarizable",
		body: mustJSON(map[string]any{"target": target, "from": from}), target: target, from: from}
}

// sourcesMax is the source-set size bound of every GET /sources, the
// dimsatload default.
const sourcesMax = 2

func sourcesReq(target string) *request {
	return &request{op: opSources, method: "GET",
		path: fmt.Sprintf("/sources?max=%d&target=%s", sourcesMax, url.QueryEscape(target)), target: target}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// family returns the generated schema family every workload draws from:
// the dimsatload default family (the one BENCH_baseline.json records),
// pinned to schema seed 42 at the given size. The schema is fixed so that
// --seed varies only the request stream; a different schema per seed would
// change how hard the searches are and swamp every spread.
func family(categories int) *olapdim.DimensionSchema {
	ds, err := gen.Schema(gen.SchemaSpec{
		Seed:          42,
		Categories:    categories,
		Levels:        4,
		ExtraEdgeProb: 0.3,
		ChoiceProb:    0.4,
		Constants:     2,
		CondProb:      0.3,
		IntoFrac:      0.5,
	})
	if err != nil {
		panic(err)
	}
	// Round-trip through the schema text so the in-process rungs hold the
	// very schema dimsatd loads, category order included.
	parsed, err := olapdim.Parse(ds.Format())
	if err != nil {
		panic(err)
	}
	return parsed
}

// space is the sample space of one schema: its categories, the Σ members
// by root, and the path atoms (one and two edges long) rooted at each
// category.
type space struct {
	ds        *olapdim.DimensionSchema
	cats      []string            // every category except All
	nonBottom []string            // categories with something below them
	sigma     []string            // rendered Σ members
	edges     []string            // one-edge path atoms below All
	atoms     map[string][]string // path atoms by root
	roots     []string            // categories with at least minAtoms atoms
	below     map[string][]string // categories strictly below a target
	// freshSigma are the Σ members rooted in roots, with their roots.
	freshSigma, freshSigmaRoot []string
}

// minAtoms is the fewest path atoms a root needs to take part in fresh
// and deep constraints: below it a root has too few distinct
// disjunctions to stay fresh for a whole run.
const minAtoms = 10

// maxPath is the longest path atom, in edges.
const maxPath = 3

// paths returns the path atoms of up to maxPath edges extending the
// simple path p.
func paths(ds *olapdim.DimensionSchema, p []string, out []string) []string {
	if len(p) > maxPath {
		return out
	}
	for _, q := range ds.G.Out(p[len(p)-1]) {
		ext := append(append([]string(nil), p...), q)
		out = append(out, strings.Join(ext, "_"))
		if q != "All" {
			out = paths(ds, ext, out)
		}
	}
	return out
}

func newSpace(ds *olapdim.DimensionSchema) *space {
	sp := &space{ds: ds, atoms: map[string][]string{}, below: map[string][]string{}}
	bottoms := map[string]bool{}
	for _, b := range ds.G.Bottoms() {
		bottoms[b] = true
	}
	for _, c := range ds.G.SortedCategories() {
		if c == "All" {
			continue
		}
		sp.cats = append(sp.cats, c)
		if !bottoms[c] {
			sp.nonBottom = append(sp.nonBottom, c)
		}
		for _, p := range ds.G.Out(c) {
			if p != "All" {
				sp.edges = append(sp.edges, c+"_"+p)
			}
		}
		sp.atoms[c] = paths(ds, []string{c}, nil)
		if len(sp.atoms[c]) >= minAtoms {
			sp.roots = append(sp.roots, c)
		}
	}
	for _, e := range ds.Sigma {
		root, err := constraint.Root(e)
		if err != nil || root == "" {
			continue
		}
		sp.sigma = append(sp.sigma, e.String())
		if len(sp.atoms[root]) >= minAtoms {
			sp.freshSigma = append(sp.freshSigma, e.String())
			sp.freshSigmaRoot = append(sp.freshSigmaRoot, root)
		}
	}
	for _, t := range sp.nonBottom {
		for _, c := range sp.cats {
			if c != t && ds.G.Reaches(c, t) {
				sp.below[t] = append(sp.below[t], c)
			}
		}
	}
	return sp
}

// hotKeys is the whole read keyspace of the hot mix, in a fixed order:
// warming up with it makes every later hot read a verdict-cache hit.
func (sp *space) hotKeys() []*request {
	var out []*request
	for _, c := range sp.cats {
		out = append(out, satReq(c), explainReq(c))
	}
	for _, s := range sp.sigma {
		out = append(out, impliesReq(s))
	}
	for _, e := range sp.edges {
		out = append(out, impliesReq(e))
	}
	for _, t := range sp.nonBottom {
		srcs := sp.below[t]
		for i := range srcs {
			out = append(out, summarizableReq(t, []string{srcs[i]}))
			for j := i + 1; j < len(srcs); j++ {
				out = append(out, summarizableReq(t, []string{srcs[i], srcs[j]}))
			}
		}
		out = append(out, sourcesReq(t))
	}
	return out
}

// probeTargets is how many targets a GET /sources probe sweeps. A first
// (cache-missing) /sources on the 16-category schema costs about a third
// of a second, so probes sweep a fixed few targets rather than all.
const probeTargets = 4

// sourcesKeys is the GET /sources probe: the first probeTargets targets.
func (sp *space) sourcesKeys() []*request {
	var out []*request
	for _, t := range sp.nonBottom[:min(probeTargets, len(sp.nonBottom))] {
		out = append(out, sourcesReq(t))
	}
	return out
}

// hotSlots is the hot mix as a deck of request kinds: sat 8, implies 5,
// summarizable 4, sources 2, explain 1 per 20 (dimsatload's default
// weights without jobs).
const hotSlots = 20

// hotRead draws the read of one hot-mix slot. Every read it can draw is
// in hotKeys.
func (sp *space) hotRead(rng *rand.Rand, slot int) *request {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	switch {
	case slot < 8:
		return satReq(pick(sp.cats))
	case slot < 13:
		if slot%2 == 0 {
			return impliesReq(pick(sp.sigma))
		}
		return impliesReq(pick(sp.edges))
	case slot < 17:
		t := pick(sp.nonBottom)
		srcs := sp.below[t]
		i := rng.Intn(len(srcs))
		if j := rng.Intn(len(srcs)); j != i && slot%2 == 0 {
			if j < i {
				i, j = j, i
			}
			return summarizableReq(t, []string{srcs[i], srcs[j]})
		}
		return summarizableReq(t, []string{srcs[i]})
	case slot < 19:
		return sourcesReq(pick(sp.nonBottom))
	default:
		return explainReq(pick(sp.cats))
	}
}

// freshSlots is the number of fresh-constraint slots: one per Σ member
// in freshSigma, then one per root.
func (sp *space) freshSlots() int { return len(sp.freshSigma) + len(sp.roots) }

// freshTries bounds the draws for one slot before it counts as used up.
const freshTries = 64

// freshConstraint draws an implication constraint the server has not
// seen. A Σ-member slot ORs that member with one to three path atoms of
// its root (implied, so the Theorem 2 search runs to exhaustion); a root
// slot is a disjunction of two to four distinct, possibly negated path
// atoms of that root. Atoms are sorted so that a constraint is new in
// meaning, not only in spelling; seen keeps every constraint drawn so far.
// The search cost depends mostly on the slot, which is why streams deal
// slots from a deck. It reports false when the slot seems used up.
func (sp *space) freshConstraint(rng *rand.Rand, seen map[string]bool, slot int) (string, bool) {
	root, head := "", ""
	if slot < len(sp.freshSigma) {
		root, head = sp.freshSigmaRoot[slot], "("+sp.freshSigma[slot]+") | "
	} else {
		root = sp.roots[slot-len(sp.freshSigma)]
	}
	atoms := sp.atoms[root]
	for try := 0; try < freshTries; try++ {
		k := 2 + rng.Intn(3)
		if head != "" {
			k = 1 + rng.Intn(3)
		}
		parts := make([]string, 0, k)
		for _, j := range rng.Perm(len(atoms))[:k] {
			a := atoms[j]
			if rng.Intn(2) == 0 {
				a = "!" + a
			}
			parts = append(parts, a)
		}
		sort.Strings(parts)
		src := head + strings.Join(parts, " | ")
		if !seen[src] {
			seen[src] = true
			return src, true
		}
	}
	return "", false
}

// fresh draws a fresh constraint starting at slot, moving on to the
// following slots while one is used up; a space with every slot used up
// ends the run.
func (sp *space) fresh(rng *rand.Rand, seen map[string]bool, slot int) string {
	n := sp.freshSlots()
	for i := 0; i < n; i++ {
		if src, ok := sp.freshConstraint(rng, seen, (slot+i)%n); ok {
			return src
		}
	}
	panic("perfbench: every fresh-constraint slot is used up")
}

// Deep constraints nest one connective per level around a path atom.
// The depth band is narrow so that the median request renders a deep
// tree: rendering is quadratic in depth today, and a wide band would let
// p50 sample only shallow bodies.
const (
	deepMin = 350
	deepMax = 400
)

// deepConstraint builds a constraint nested depth levels deep over the
// path atoms of the slot's root: each level adds a negation, or a
// conjunction or disjunction with one more atom.
func (sp *space) deepConstraint(rng *rand.Rand, slot int) string {
	atoms := sp.atoms[sp.roots[slot]]
	pick := func() string { return atoms[rng.Intn(len(atoms))] }
	depth := deepMin + rng.Intn(deepMax-deepMin+1)
	var b strings.Builder
	var tail []string
	for i := 0; i < depth; i++ {
		switch rng.Intn(3) {
		case 0:
			b.WriteString("!(")
			tail = append(tail, ")")
		case 1:
			b.WriteString("(")
			tail = append(tail, " | "+pick()+")")
		default:
			b.WriteString("(")
			tail = append(tail, " & "+pick()+")")
		}
	}
	b.WriteString(pick())
	for i := len(tail) - 1; i >= 0; i-- {
		b.WriteString(tail[i])
	}
	return b.String()
}

// workload is one named traffic mix over one schema.
type workload struct {
	name       string
	categories int
	// slots is the deck size and next draws the request of one slot.
	// Streams deal every slot once per round, in a seeded order, so each
	// stretch of a run carries the same mix whatever the seed.
	slots func(sp *space) int
	next  func(rng *rand.Rand, sp *space, seen map[string]bool, slot int) *request
	// warm is how many of the stream's warm-up requests a fresh server
	// gets before the window (0 means the whole hot keyspace); they are
	// part of the set-up time.
	warm int
	// replay is how many stream requests the traced run replays in
	// process; the exact work counters cover exactly these.
	replay int
	// sourcesInMix and jobsInMix say whether the window sends GET
	// /sources and POST /jobs; when it does not, probe chunks between the
	// window's slices measure them.
	sourcesInMix, jobsInMix bool
	// checkpointEvery is dimsatd's -checkpoint-every: its default
	// everywhere but jobs-mixed, whose value is low enough that a fresh
	// implication on the 12-category schema writes a few durable
	// checkpoints.
	checkpointEvery int
}

// jobDecks is how many hot decks jobs-mixed deals per POST /jobs.
const jobDecks = 5

// defaultCheckpointEvery is dimsatd's own -checkpoint-every default.
const defaultCheckpointEvery = 1000

var workloads = map[string]*workload{
	"hot-mix": {
		name: "hot-mix", categories: 12, replay: 2000, checkpointEvery: defaultCheckpointEvery,
		slots: func(*space) int { return hotSlots }, sourcesInMix: true,
		next: func(rng *rand.Rand, sp *space, _ map[string]bool, slot int) *request {
			return sp.hotRead(rng, slot)
		},
	},
	"cold-implies": {
		name: "cold-implies", categories: 16, replay: 1500, checkpointEvery: defaultCheckpointEvery, warm: 200,
		slots: (*space).freshSlots,
		next: func(rng *rand.Rand, sp *space, seen map[string]bool, slot int) *request {
			return impliesReq(sp.fresh(rng, seen, slot))
		},
	},
	"jobs-mixed": {
		name: "jobs-mixed", categories: 12, replay: 2000, checkpointEvery: 16,
		// One POST /jobs per jobDecks hot decks: at one per hot deck the
		// job workers' fsyncs kept the disk busy enough that the ack latency
		// mostly measured the disk queue.
		slots: func(*space) int { return jobDecks*hotSlots + 1 }, sourcesInMix: true, jobsInMix: true,
		next: func(rng *rand.Rand, sp *space, seen map[string]bool, slot int) *request {
			if slot == jobDecks*hotSlots {
				return jobReq(sp.fresh(rng, seen, rng.Intn(sp.freshSlots())))
			}
			return sp.hotRead(rng, slot%hotSlots)
		},
	},
	"deep-constraints": {
		name: "deep-constraints", categories: 12, replay: 150, checkpointEvery: defaultCheckpointEvery, warm: 20,
		slots: func(sp *space) int { return len(sp.roots) },
		next: func(rng *rand.Rand, sp *space, _ map[string]bool, slot int) *request {
			return impliesReq(sp.deepConstraint(rng, slot))
		},
	},
}

// jobProbe is how many fresh implications are drawn for job probes: the
// job-ack probe of workloads whose window submits no jobs, and the
// traced run's in-process job store rung.
const jobProbe = 200

// fixedSeed seeds the warm-up and the job probe. They are the same in
// every run of a workload, so set-up time and the probes do the same work
// whatever --seed is; the seen set keeps the seeded stream clear of them.
const fixedSeed = 0

// stream is a workload's request sequence: the fixed warm-up and job-probe
// requests, then the seeded window stream, drawn lazily. Every prefix of
// the window stream is a pure function of the seed, so the window, the
// traced replay and the verdict check all see the same requests. Safe for
// concurrent use.
type stream struct {
	warm      []*request
	probeJobs []string

	mu   sync.Mutex
	w    *workload
	sp   *space
	rng  *rand.Rand
	seen map[string]bool
	deck []int
	reqs []*request
}

func newStream(w *workload, sp *space, seed int64) *stream {
	s := &stream{w: w, sp: sp, seen: map[string]bool{}}
	fixed := rand.New(rand.NewSource(fixedSeed))
	if w.warm == 0 {
		s.warm = sp.hotKeys()
	}
	for i := 0; i < w.warm; i++ {
		s.warm = append(s.warm, w.next(fixed, sp, s.seen, i%w.slots(sp)))
	}
	for i := 0; i < jobProbe; i++ {
		s.probeJobs = append(s.probeJobs, sp.fresh(fixed, s.seen, i%sp.freshSlots()))
	}
	s.rng = rand.New(rand.NewSource(seed))
	return s
}

// at returns request i of the window stream, drawing the stream up to it.
func (s *stream) at(i int) *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		if len(s.deck) == 0 {
			s.deck = s.rng.Perm(s.w.slots(s.sp))
		}
		slot := s.deck[0]
		s.deck = s.deck[1:]
		s.reqs = append(s.reqs, s.w.next(s.rng, s.sp, s.seen, slot))
	}
	return s.reqs[i]
}
