package constraint

import (
	"fmt"
	"math"
	"sort"

	"olapdim/internal/schema"
)

// Walk calls fn for every atom in e, in left-to-right order.
func Walk(e Expr, fn func(Atom)) {
	switch e := e.(type) {
	case True, False:
	case PathAtom:
		fn(e)
	case EqAtom:
		fn(e)
	case CmpAtom:
		fn(e)
	case RollupAtom:
		fn(e)
	case ThroughAtom:
		fn(e)
	case Not:
		Walk(e.X, fn)
	case And:
		for _, x := range e.Xs {
			Walk(x, fn)
		}
	case Or:
		for _, x := range e.Xs {
			Walk(x, fn)
		}
	case One:
		for _, x := range e.Xs {
			Walk(x, fn)
		}
	case Implies:
		Walk(e.A, fn)
		Walk(e.B, fn)
	case Iff:
		Walk(e.A, fn)
		Walk(e.B, fn)
	case Xor:
		Walk(e.A, fn)
		Walk(e.B, fn)
	default:
		panic("constraint: unknown expression type")
	}
}

// Atoms returns the atoms of e in left-to-right order (with duplicates).
func Atoms(e Expr) []Atom {
	var out []Atom
	Walk(e, func(a Atom) { out = append(out, a) })
	return out
}

// Root returns the root category shared by all atoms of e. Expressions with
// no atoms have no root and return ("", nil). Mixed roots are an error:
// Definition 3 requires all atoms of a constraint to share one root.
func Root(e Expr) (string, error) {
	return ValidateRoot(e, nil)
}

// Validate checks that e is a well-formed dimension constraint over g:
// all atoms share a single root different from All; path atoms are simple
// paths in g; all mentioned categories exist in g.
func Validate(e Expr, g *schema.Schema) error {
	_, err := ValidateRoot(e, g)
	return err
}

// ValidateRoot is Validate and Root in one pass over e: it returns the
// root of e, or the error Validate reports. A nil g skips the checks
// against the schema (Root). The walk switches on the concrete atom
// types instead of going through Walk, so a valid constraint is checked
// without boxing its atoms into interfaces — the implication cache
// validates every query on its hit path.
func ValidateRoot(e Expr, g *schema.Schema) (string, error) {
	v := validator{g: g}
	v.walk(e)
	switch {
	case v.mixed:
		return "", fmt.Errorf("constraint: mixed roots %q and %q in %s", v.root, v.other, e)
	case g != nil && v.root == schema.All:
		return "", fmt.Errorf("constraint: root All is not allowed (Definition 3): %s", e)
	case v.err != nil:
		return "", v.err
	}
	return v.root, nil
}

// validator accumulates one ValidateRoot pass: the root of the first atom,
// the first root disagreeing with it, and the first atom error.
type validator struct {
	g     *schema.Schema
	root  string
	other string
	mixed bool
	err   error
}

func (v *validator) atom(root string) {
	switch {
	case v.root == "":
		v.root = root
	case v.root != root && !v.mixed:
		v.other, v.mixed = root, true
	}
}

func (v *validator) fail(err error) {
	if v.err == nil {
		v.err = err
	}
}

// unknownCategory is the error for an atom a mentioning category c that
// the schema lacks. Callers box a only on this failure path.
func unknownCategory(c string, a Atom) error {
	return fmt.Errorf("constraint: unknown category %q in %s", c, a)
}

func (v *validator) walk(e Expr) {
	switch e := e.(type) {
	case True, False:
	case PathAtom:
		v.atom(e.Root())
		if v.g == nil {
			return
		}
		if len(e.Cats) < 2 {
			v.fail(fmt.Errorf("constraint: path atom %s needs at least two categories", e))
		} else if !v.g.IsSimplePath(e.Cats) {
			v.fail(fmt.Errorf("constraint: %s is not a simple path in schema %s", e, v.g.Name()))
		}
	case EqAtom:
		v.atom(e.RootCat)
		if v.g == nil {
			return
		}
		if !v.g.HasCategory(e.Cat) {
			v.fail(unknownCategory(e.Cat, e))
		}
		if e.Val == "" {
			v.fail(fmt.Errorf("constraint: empty constant in %s", e))
		}
	case CmpAtom:
		v.atom(e.RootCat)
		if v.g == nil {
			return
		}
		if !v.g.HasCategory(e.Cat) {
			v.fail(unknownCategory(e.Cat, e))
		}
		if math.IsNaN(e.Val) || math.IsInf(e.Val, 0) {
			v.fail(fmt.Errorf("constraint: non-finite constant in %s", e))
		}
	case RollupAtom:
		v.atom(e.RootCat)
		if v.g != nil && !v.g.HasCategory(e.Cat) {
			v.fail(unknownCategory(e.Cat, e))
		}
	case ThroughAtom:
		v.atom(e.RootCat)
		if v.g == nil {
			return
		}
		if !v.g.HasCategory(e.Via) {
			v.fail(unknownCategory(e.Via, e))
		}
		if !v.g.HasCategory(e.Cat) {
			v.fail(unknownCategory(e.Cat, e))
		}
	case Not:
		v.walk(e.X)
	case And:
		v.walkAll(e.Xs)
	case Or:
		v.walkAll(e.Xs)
	case One:
		v.walkAll(e.Xs)
	case Implies:
		v.walk(e.A)
		v.walk(e.B)
	case Iff:
		v.walk(e.A)
		v.walk(e.B)
	case Xor:
		v.walk(e.A)
		v.walk(e.B)
	default:
		panic("constraint: unknown expression type")
	}
}

func (v *validator) walkAll(xs []Expr) {
	for _, x := range xs {
		v.walk(x)
	}
}

// Expand rewrites composed atoms (rollup and through) into the Boolean
// combinations of simple path atoms prescribed in Sections 3.1 and 3.3.
// Expansion can be exponential in the schema size; the evaluators in this
// repository interpret composed atoms directly, and Expand exists to
// cross-check that direct interpretation in tests.
func Expand(e Expr, g *schema.Schema) Expr {
	switch e := e.(type) {
	case True, False, PathAtom, EqAtom, CmpAtom:
		return e
	case RollupAtom:
		return expandRollup(e, g)
	case ThroughAtom:
		return expandThrough(e, g)
	case Not:
		return Not{X: Expand(e.X, g)}
	case And:
		return And{Xs: expandSlice(e.Xs, g)}
	case Or:
		return Or{Xs: expandSlice(e.Xs, g)}
	case One:
		return One{Xs: expandSlice(e.Xs, g)}
	case Implies:
		return Implies{A: Expand(e.A, g), B: Expand(e.B, g)}
	case Iff:
		return Iff{A: Expand(e.A, g), B: Expand(e.B, g)}
	case Xor:
		return Xor{A: Expand(e.A, g), B: Expand(e.B, g)}
	}
	panic("constraint: unknown expression type")
}

func expandSlice(xs []Expr, g *schema.Schema) []Expr {
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = Expand(x, g)
	}
	return out
}

func expandRollup(a RollupAtom, g *schema.Schema) Expr {
	// c.c denotes ⊤ (Section 3.1).
	if a.Cat == a.RootCat {
		return True{}
	}
	var xs []Expr
	for _, p := range g.SimplePaths(a.RootCat, a.Cat) {
		xs = append(xs, PathAtom{Cats: p})
	}
	if len(xs) == 0 {
		return False{}
	}
	return Simplify(Or{Xs: xs})
}

func expandThrough(a ThroughAtom, g *schema.Schema) Expr {
	c, ci, cj := a.RootCat, a.Via, a.Cat
	switch {
	case c == ci && ci == cj:
		return True{}
	case c == cj && c != ci:
		return False{}
	case c == ci && c != cj:
		return expandRollup(RollupAtom{RootCat: c, Cat: cj}, g)
	case ci == cj && c != ci:
		return expandRollup(RollupAtom{RootCat: c, Cat: ci}, g)
	}
	// General case: all simple paths from c to cj containing ci.
	var xs []Expr
	for _, p := range g.SimplePaths(c, cj) {
		for _, mid := range p[1 : len(p)-1] {
			if mid == ci {
				xs = append(xs, PathAtom{Cats: p})
				break
			}
		}
	}
	if len(xs) == 0 {
		return False{}
	}
	return Simplify(Or{Xs: xs})
}

// ConstMap computes the function Const_ds of Section 3.2: for each category
// c, the sorted set of constants k such that some constraint contains an
// equality atom ci.c≈k or c≈k. Categories with no constants are absent.
func ConstMap(sigma []Expr) map[string][]string {
	sets := map[string]map[string]bool{}
	for _, e := range sigma {
		Walk(e, func(a Atom) {
			eq, ok := a.(EqAtom)
			if !ok {
				return
			}
			if sets[eq.Cat] == nil {
				sets[eq.Cat] = map[string]bool{}
			}
			sets[eq.Cat][eq.Val] = true
		})
	}
	out := make(map[string][]string, len(sets))
	for c, vs := range sets {
		list := make([]string, 0, len(vs))
		for v := range vs {
			list = append(list, v)
		}
		sort.Strings(list)
		out[c] = list
	}
	return out
}

// IntoEdges extracts the edges forced by "into" constraints in sigma
// (Section 5): an into constraint c_c' states that every member of c has a
// parent in c'. Any constraint that is an unconditional conjunction of
// atoms forces, for each positive path atom c_c1_..._cn in it, the edge
// (c, c1); in particular the bare into constraint c_c' forces (c, c').
// The result maps each category to the sorted set of forced parents.
func IntoEdges(sigma []Expr) map[string][]string {
	sets := map[string]map[string]bool{}
	var collect func(e Expr)
	collect = func(e Expr) {
		switch e := e.(type) {
		case PathAtom:
			if sets[e.Cats[0]] == nil {
				sets[e.Cats[0]] = map[string]bool{}
			}
			sets[e.Cats[0]][e.Cats[1]] = true
		case And:
			for _, x := range e.Xs {
				collect(x)
			}
		}
	}
	for _, e := range sigma {
		collect(e)
	}
	out := make(map[string][]string, len(sets))
	for c, ps := range sets {
		list := make([]string, 0, len(ps))
		for p := range ps {
			list = append(list, p)
		}
		sort.Strings(list)
		out[c] = list
	}
	return out
}

// SigmaFor returns the constraints of sigma relevant when finding a frozen
// dimension with root c: those whose root c' satisfies c ↗* c' in g
// (the set Σ(ds, c) of Section 5). Constraints with no atoms are always
// relevant. The relative order of sigma is preserved.
func SigmaFor(sigma []Expr, g *schema.Schema, c string) []Expr {
	var out []Expr
	for _, e := range sigma {
		root, err := Root(e)
		if err != nil {
			continue
		}
		if root == "" || g.Reaches(c, root) {
			out = append(out, e)
		}
	}
	return out
}
