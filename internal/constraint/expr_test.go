package constraint

import (
	"math"
	"testing"
	"time"
)

func TestAtomStrings(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{True{}, "true"},
		{False{}, "false"},
		{NewPath("Store", "City"), "Store_City"},
		{NewPath("Store", "City", "Province"), "Store_City_Province"},
		{EqAtom{RootCat: "Store", Cat: "Country", Val: "Canada"}, `Store.Country="Canada"`},
		{EqAtom{RootCat: "City", Cat: "City", Val: "Washington"}, `City="Washington"`},
		{RollupAtom{RootCat: "Store", Cat: "SaleRegion"}, "Store.SaleRegion"},
		{ThroughAtom{RootCat: "Store", Via: "City", Cat: "Country"}, "Store.City.Country"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestConnectiveStrings(t *testing.T) {
	a := NewPath("A", "B")
	b := NewPath("A", "C")
	c := NewPath("A", "D")
	cases := []struct {
		e    Expr
		want string
	}{
		{Not{X: a}, "!A_B"},
		{Not{X: Not{X: a}}, "!!A_B"},
		{NewAnd(a, b), "A_B & A_C"},
		{NewOr(a, b), "A_B | A_C"},
		{Implies{A: a, B: b}, "A_B -> A_C"},
		{Iff{A: a, B: b}, "A_B <-> A_C"},
		{Xor{A: a, B: b}, "A_B ^ A_C"},
		{NewOne(a, b, c), "one(A_B, A_C, A_D)"},
		{NewAnd(), "true"},
		{NewOr(), "false"},
		// Precedence: & binds tighter than |, | tighter than ^, ^ tighter
		// than ->, -> tighter than <->.
		{NewOr(NewAnd(a, b), c), "A_B & A_C | A_D"},
		{NewAnd(NewOr(a, b), c), "(A_B | A_C) & A_D"},
		{Implies{A: NewOr(a, b), B: c}, "A_B | A_C -> A_D"},
		{Implies{A: a, B: Implies{A: b, B: c}}, "A_B -> A_C -> A_D"},
		{Implies{A: Implies{A: a, B: b}, B: c}, "(A_B -> A_C) -> A_D"},
		{Iff{A: a, B: Implies{A: b, B: c}}, "A_B <-> A_C -> A_D"},
		{Not{X: NewAnd(a, b)}, "!(A_B & A_C)"},
		{Xor{A: a, B: NewOr(b, c)}, "A_B ^ A_C | A_D"},
		{NewAnd(Not{X: a}, b), "!A_B & A_C"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestEqual(t *testing.T) {
	a := NewPath("A", "B")
	cases := []struct {
		x, y Expr
		want bool
	}{
		{a, NewPath("A", "B"), true},
		{a, NewPath("A", "C"), false},
		{a, NewPath("A", "B", "C"), false},
		{True{}, True{}, true},
		{True{}, False{}, false},
		{Not{X: a}, Not{X: a}, true},
		{NewAnd(a, a), NewAnd(a, a), true},
		{NewAnd(a), NewOr(a), false},
		{Implies{A: a, B: a}, Implies{A: a, B: a}, true},
		{Implies{A: a, B: a}, Iff{A: a, B: a}, false},
		{Xor{A: a, B: a}, Xor{A: a, B: a}, true},
		{NewOne(a), NewOne(a), true},
		{NewOne(a), NewOne(a, a), false},
		{EqAtom{"A", "B", "k"}, EqAtom{"A", "B", "k"}, true},
		{EqAtom{"A", "B", "k"}, EqAtom{"A", "B", "j"}, false},
		{RollupAtom{"A", "B"}, RollupAtom{"A", "B"}, true},
		{ThroughAtom{"A", "B", "C"}, ThroughAtom{"A", "B", "C"}, true},
		{ThroughAtom{"A", "B", "C"}, ThroughAtom{"A", "C", "B"}, false},
	}
	for _, c := range cases {
		if got := Equal(c.x, c.y); got != c.want {
			t.Errorf("Equal(%s, %s) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestRoot(t *testing.T) {
	a := NewPath("A", "B")
	b := NewPath("B", "C")
	if r, err := Root(NewAnd(a, a)); err != nil || r != "A" {
		t.Errorf("Root = %q, %v", r, err)
	}
	if r, err := Root(True{}); err != nil || r != "" {
		t.Errorf("Root(true) = %q, %v", r, err)
	}
	if _, err := Root(NewAnd(a, b)); err == nil {
		t.Error("mixed roots accepted")
	}
	if r, err := Root(Implies{A: EqAtom{"A", "X", "k"}, B: RollupAtom{"A", "Y"}}); err != nil || r != "A" {
		t.Errorf("Root = %q, %v", r, err)
	}
}

// nestedExpr builds a constraint depth connectives deep, cycling through
// a negation, a conjunction and a disjunction with one more atom.
func nestedExpr(depth int) Expr {
	e := Expr(pa)
	for i := 0; i < depth; i++ {
		switch i % 3 {
		case 0:
			e = Not{X: e}
		case 1:
			e = NewAnd(e, pb)
		default:
			e = NewOr(e, pa)
		}
	}
	return e
}

// TestRenderLinearInDepth doubles the nesting depth of a constraint and
// requires the render time to at most about double with it: a renderer
// that concatenates child strings per level copies the subtree's text
// once per enclosing level, which is quadratic and quadruples instead.
// Timings are the best of several runs, and a noisy attempt is retried.
func TestRenderLinearInDepth(t *testing.T) {
	small, big := nestedExpr(2000), nestedExpr(4000)
	best := func(e Expr) time.Duration {
		min := time.Duration(math.MaxInt64)
		for i := 0; i < 15; i++ {
			start := time.Now()
			_ = e.String()
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		ratio = float64(best(big)) / float64(best(small))
		if ratio <= 2.5 {
			return
		}
	}
	t.Fatalf("doubling the depth multiplied the render time by %.2f, want at most 2.5", ratio)
}
