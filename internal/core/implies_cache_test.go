package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"olapdim/internal/constraint"
	"olapdim/internal/core"
	"olapdim/internal/gen"
	"olapdim/internal/parser"
)

// loadSchema is the 12-category generated schema the load tools serve
// (schema seed 42), compiled the way dimsatd runs it.
func loadSchema(tb testing.TB) (*core.DimensionSchema, *core.Compiled) {
	tb.Helper()
	ds, err := gen.Schema(gen.SchemaSpec{
		Seed: 42, Categories: 12, Levels: 4, ExtraEdgeProb: 0.3,
		ChoiceProb: 0.4, Constants: 2, CondProb: 0.3, IntoFrac: 0.5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cs, err := core.Compile(ds)
	if err != nil {
		tb.Fatal(err)
	}
	return ds, cs
}

// TestImpliesCacheKeySharedAcrossEngines pins the implication cache key
// to the schema and the constraint, not to the engine: an interpreted and
// a compiled ImpliesContext for the same ds ⊨ α share one entry. It also
// pins the derived negation schema's fingerprint to the interpreted
// reduction's, which checkpoints of implication jobs are keyed by.
func TestImpliesCacheKeySharedAcrossEngines(t *testing.T) {
	ds, err := core.Parse("schema diamond\nedge A -> B -> D -> All\nedge A -> C -> D\nedge A -> D\nconstraint !A_D\n")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := core.Compile(ds)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := parser.ParseConstraint("A.B | A.C")
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewSatCache()
	ctx := context.Background()
	interp, ires, err := core.ImpliesContext(ctx, ds, alpha, core.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	comp, cres, err := core.ImpliesContext(ctx, ds, alpha, core.Options{Cache: cache, Compiled: cs})
	if err != nil {
		t.Fatal(err)
	}
	if interp != comp || ires.Satisfiable != cres.Satisfiable {
		t.Fatalf("verdicts differ: interpreted %v, compiled %v", interp, comp)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache stats = %+v, want hits 1, misses 1, entries 1", st)
	}

	neg, _, _, _, err := core.ImpliesReduction(ds, alpha)
	if err != nil {
		t.Fatal(err)
	}
	dcs, err := cs.Derive(neg.Sigma[len(neg.Sigma)-1])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dcs.Fingerprint(), core.Fingerprint(neg); got != want {
		t.Fatalf("derived fingerprint %s != reduction fingerprint %s", got, want)
	}
}

// TestImpliesCacheHitAllocationCeiling is the allocation-regression guard
// for the implication hit path: validating α, rendering and hashing it and
// probing the cache must stay a handful of objects. The negation schema,
// its fingerprint and the derive lookup happen only on a miss.
func TestImpliesCacheHitAllocationCeiling(t *testing.T) {
	ds, cs := loadSchema(t)
	cats := ds.G.SortedCategories()
	alpha := core.SummarizabilityConstraint(ds.G.Bottoms()[0], cats[len(cats)-1], cats[1:3])
	opts := core.Options{Cache: core.NewSatCache(), Compiled: cs}
	ctx := context.Background()
	if _, _, err := core.ImpliesContext(ctx, ds, alpha, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := core.ImpliesContext(ctx, ds, alpha, opts); err != nil {
			t.Fatal(err)
		}
	})
	st := opts.Cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1: the measured calls must all be hits", st.Misses)
	}
	t.Logf("implication cache hit: %.1f allocs", allocs)
	// A hit allocates the rendering of α (builder growth plus the byte
	// copy hashed) and nothing per Σ entry or per schema category.
	if allocs > 6 {
		t.Fatalf("implication cache hit allocates %.1f objects, want at most 6", allocs)
	}
}

// TestImpliesCacheConcurrentSingleflight runs the same implications from
// many goroutines against one cache (run under -race): each distinct
// implication is searched once, every other call is a hit, and every
// call returns the verdict of an uncached run.
func TestImpliesCacheConcurrentSingleflight(t *testing.T) {
	ds, cs := loadSchema(t)
	cats := ds.G.SortedCategories()
	var alphas []constraint.Expr
	var want []bool
	for _, cb := range ds.G.Bottoms() {
		for _, c := range cats[1:5] {
			alpha := core.SummarizabilityConstraint(cb, c, cats[5:7])
			implied, _, err := core.Implies(ds, alpha, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			alphas, want = append(alphas, alpha), append(want, implied)
		}
	}
	opts := core.Options{Cache: core.NewSatCache(), Compiled: cs}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, alpha := range alphas {
				implied, _, err := core.ImpliesContext(context.Background(), ds, alpha, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if implied != want[i] {
					t.Errorf("%s: implied = %v, want %v", alpha, implied, want[i])
				}
			}
		}()
	}
	wg.Wait()
	st := opts.Cache.Stats()
	if st.Misses != uint64(len(alphas)) || st.Hits != uint64((goroutines-1)*len(alphas)) {
		t.Fatalf("cache stats = %+v, want %d misses and %d hits", st, len(alphas), (goroutines-1)*len(alphas))
	}
}

// FuzzImpliesCachedVsCold checks, for any constraint the parser accepts
// over a generated schema, that a verdict answered from a warm cache is
// the verdict a fresh cache computes, and that no call panics (a
// recovered panic surfaces as core.ErrInternal). Wired into make
// fuzz-smoke.
func FuzzImpliesCachedVsCold(f *testing.F) {
	for _, src := range []string{
		"C0_C2",
		"C3.C1 -> C3.C0",
		"!C6_C1 | C6.C2=\"k0\"",
		"C9_C7_C5 & C9.C8",
		"C1_C0",
		"one(C4.C1, C4.C2.C0)",
		"C1_C0 & C2_C0",
		"C5.C9 <-> !(C5.C2 ^ C5=\"k1\")",
		"C3.C1 < 2.5",
		"true -> false",
		"C11.C0",
		"Nope_C0",
	} {
		f.Add(int64(42), uint8(12), src)
	}
	f.Add(int64(7), uint8(6), "C2.C0 | C2.C1")
	f.Fuzz(func(t *testing.T, seed int64, cats uint8, src string) {
		alpha, err := parser.ParseConstraint(src)
		if err != nil {
			t.Skip()
		}
		ds, err := gen.Schema(gen.SchemaSpec{
			Seed: seed, Categories: 2 + int(cats%12), Levels: 3, ExtraEdgeProb: 0.3,
			ChoiceProb: 0.4, Constants: 2, CondProb: 0.3, IntoFrac: 0.5,
		})
		if err != nil {
			t.Skip()
		}
		cs, err := core.Compile(ds)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		ctx := context.Background()
		warm := core.Options{Cache: core.NewSatCache(), Compiled: cs, MaxExpansions: 2000}
		var implied [3]bool
		var errs [3]error
		for i := 0; i < 2; i++ {
			implied[i], _, errs[i] = core.ImpliesContext(ctx, ds, alpha, warm)
		}
		cold := core.Options{Cache: core.NewSatCache(), MaxExpansions: 2000}
		implied[2], _, errs[2] = core.ImpliesContext(ctx, ds, alpha, cold)
		for i, err := range errs {
			if errors.Is(err, core.ErrInternal) {
				t.Fatalf("call %d on %q panicked: %v", i, src, err)
			}
		}
		for i := 1; i < 3; i++ {
			if (errs[i] == nil) != (errs[0] == nil) ||
				(errs[0] != nil && errs[i].Error() != errs[0].Error()) {
				t.Fatalf("%q: error mismatch: %v vs %v", src, errs[0], errs[i])
			}
			if implied[i] != implied[0] {
				t.Fatalf("%q: verdict mismatch: call %d says %v, first call %v", src, i, implied[i], implied[0])
			}
		}
	})
}

// BenchmarkMinimalSourcesHit measures one GET /sources?max=2 answered
// entirely from a warm cache on the load schema: every candidate source
// set is a Theorem 1 test of one implication per bottom category.
func BenchmarkMinimalSourcesHit(b *testing.B) {
	ds, cs := loadSchema(b)
	opts := core.Options{Cache: core.NewSatCache(), Compiled: cs}
	targets := []string{"C2", "C5", "C8", "C11"}
	for _, target := range targets {
		if _, err := core.MinimalSources(ds, target, 2, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.MinimalSources(ds, targets[i%len(targets)], 2, opts); err != nil {
			b.Fatal(err)
		}
	}
}
