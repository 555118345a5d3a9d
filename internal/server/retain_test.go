package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"olapdim/internal/core"
	"olapdim/internal/paper"
)

// deepImplication renders the i-th of a family of distinct constraints
// over the Store root nested depth levels deep: each level adds a
// negation, or a conjunction or disjunction with one more atom. The
// outermost 16 levels spell i in binary, so no two are equal; the text
// of each runs to a couple of kilobytes.
func deepImplication(i int, rng *rand.Rand, depth int) string {
	atoms := []string{"Store_City", "Store.SaleRegion", "Store.Country", "Store_City_State", "Store.City.Country"}
	pick := func() string { return atoms[rng.Intn(len(atoms))] }
	var b strings.Builder
	var tail []string
	for level := 0; level < depth; level++ {
		kind := rng.Intn(3)
		if level < 16 {
			kind = 1 + (i>>level)&1
		}
		switch kind {
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
	for j := len(tail) - 1; j >= 0; j-- {
		b.WriteString(tail[j])
	}
	return b.String()
}

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCachedVerdictsPinNoRequestBody serves distinct deep implications
// and bounds the live heap each cached verdict retains. A cache key that
// holds a substring of the request (the root category sliced from the
// constraint text) keeps the whole multi-kilobyte constraint alive for
// as long as the verdict is cached; an interned key retains only the
// entry and its witness. The warm-up fills the bounded derive cache
// first, so the measured growth is the verdict cache's alone.
func TestCachedVerdictsPinNoRequestBody(t *testing.T) {
	if testing.Short() {
		t.Skip("serves several hundred deep implications")
	}
	cache := core.NewSatCache()
	// Span recording is off: the span ring keeps each request's detail
	// (the constraint text) until it wraps, which would swamp the
	// measurement with a bounded cost.
	s, err := NewWithConfig(paper.LocationSch(), Config{Options: core.Options{Cache: cache}, SpanSample: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	next := 0
	serve := func(n int) {
		for ; n > 0; n-- {
			body, _ := json.Marshal(impliesRequest{Constraint: deepImplication(next, rng, 150)})
			next++
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/implies", strings.NewReader(string(body))))
			if rec.Code != http.StatusOK {
				t.Fatalf("POST /implies = %d: %s", rec.Code, rec.Body)
			}
		}
	}
	serve(300)
	before, entriesBefore := liveHeap(), cache.Stats().Entries
	serve(600)
	after, entriesAfter := liveHeap(), cache.Stats().Entries
	runtime.KeepAlive(s)
	added := entriesAfter - entriesBefore
	if added < 550 {
		t.Fatalf("only %d new cache entries from 600 distinct implications", added)
	}
	perVerdict := (float64(after) - float64(before)) / float64(added)
	t.Logf("%d cached verdicts retain %.0f bytes each", added, perVerdict)
	if perVerdict > 1024 {
		t.Fatalf("each cached verdict retains %.0f bytes of heap, want at most 1 KiB", perVerdict)
	}
}
