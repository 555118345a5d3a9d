// Package constraint implements the dimension constraint language of
// Section 3 of Hurtado & Mendelzon, "OLAP Dimension Constraints"
// (PODS 2002).
//
// A dimension constraint is a Boolean combination of atoms, all rooted at
// the same category c ≠ All:
//
//   - path atoms c_c1_..._cn, asserting a child/parent chain through the
//     named categories (Definition 3);
//   - equality atoms c.ci≈k, asserting an ancestor in ci named k;
//   - composed rollup atoms c.ci, shorthand for the disjunction of all path
//     atoms from c ending at ci (Section 3.1);
//   - composed through atoms c.ci.cj, shorthand for "rolls up to cj passing
//     through ci" (Section 3.3).
//
// The connectives are ¬ ∧ ∨ ⊃ ≡ ⊕ together with the "exactly one" operator
// ⊙ and the constants ⊤ and ⊥. Expressions render in the ASCII syntax
// accepted by olapdim's parser: ! & | -> <-> ^ one(...) true false.
package constraint

import (
	"fmt"
	"strconv"
	"strings"
)

// Expr is a dimension constraint expression.
type Expr interface {
	fmt.Stringer
	// prec returns the printing precedence; higher binds tighter.
	prec() int
}

// Atom is an expression that is a single (possibly composed) atom.
type Atom interface {
	Expr
	// Root returns the root category of the atom.
	Root() string
	isAtom()
}

// True is the proposition ⊤.
type True struct{}

// False is the proposition ⊥.
type False struct{}

// PathAtom is a path atom c_c1_..._cn over a simple path in the hierarchy
// schema. Cats holds the full path including the root; len(Cats) >= 2.
type PathAtom struct {
	Cats []string
}

// NewPath builds a path atom from root and at least one further category.
func NewPath(root string, rest ...string) PathAtom {
	return PathAtom{Cats: append([]string{root}, rest...)}
}

// EqAtom is an equality atom c.ci≈k: some ancestor of x in category Cat has
// Name = Val. When Cat == root the atom abbreviates Name(x) = Val.
type EqAtom struct {
	RootCat string
	Cat     string
	Val     string
}

// CmpOp is the comparison operator of an order atom.
type CmpOp int

// The order relations over numeric attribute values.
const (
	Lt CmpOp = iota // <
	Le              // <=
	Gt              // >
	Ge              // >=
)

func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Holds reports whether "v op k" holds.
func (op CmpOp) Holds(v, k float64) bool {
	switch op {
	case Lt:
		return v < k
	case Le:
		return v <= k
	case Gt:
		return v > k
	case Ge:
		return v >= k
	}
	return false
}

// CmpAtom is an order atom c.ci<k (likewise <=, >, >=): some ancestor of x
// in category Cat has a numeric Name in the stated relation to Val.
// Ancestors with non-numeric names never satisfy an order atom. Order
// atoms implement the Section 6 extension of the paper ("further built-in
// predicates over attributes, such as an order relation"); see DESIGN.md.
type CmpAtom struct {
	RootCat string
	Cat     string
	Op      CmpOp
	Val     float64
}

// RollupAtom is a composed path atom c.ci: x rolls up to category Cat.
// When Cat == root it denotes ⊤.
type RollupAtom struct {
	RootCat string
	Cat     string
}

// ThroughAtom is the shorthand c.ci.cj of Section 3.3: x rolls up to Cat
// passing through Via.
type ThroughAtom struct {
	RootCat string
	Via     string
	Cat     string
}

// Not is negation.
type Not struct{ X Expr }

// And is n-ary conjunction; And{} is ⊤.
type And struct{ Xs []Expr }

// Or is n-ary disjunction; Or{} is ⊥.
type Or struct{ Xs []Expr }

// Implies is material implication A ⊃ B.
type Implies struct{ A, B Expr }

// Iff is equivalence A ≡ B.
type Iff struct{ A, B Expr }

// Xor is exclusive disjunction A ⊕ B.
type Xor struct{ A, B Expr }

// One is the ⊙ operator: exactly one of Xs is true. One{} is ⊥.
type One struct{ Xs []Expr }

// Convenience constructors keep client code readable.

// NewAnd returns the conjunction of xs.
func NewAnd(xs ...Expr) And { return And{Xs: xs} }

// NewOr returns the disjunction of xs.
func NewOr(xs ...Expr) Or { return Or{Xs: xs} }

// NewOne returns the exactly-one combination of xs.
func NewOne(xs ...Expr) One { return One{Xs: xs} }

func (PathAtom) isAtom()    {}
func (EqAtom) isAtom()      {}
func (CmpAtom) isAtom()     {}
func (RollupAtom) isAtom()  {}
func (ThroughAtom) isAtom() {}

// Root returns the root category of the path atom.
func (a PathAtom) Root() string { return a.Cats[0] }

// Root returns the root category of the equality atom.
func (a EqAtom) Root() string { return a.RootCat }

// Root returns the root category of the order atom.
func (a CmpAtom) Root() string { return a.RootCat }

// Root returns the root category of the rollup atom.
func (a RollupAtom) Root() string { return a.RootCat }

// Root returns the root category of the through atom.
func (a ThroughAtom) Root() string { return a.RootCat }

// Printing precedences; atoms and constants bind tightest.
const (
	precIff = iota
	precImplies
	precXor
	precOr
	precAnd
	precNot
	precAtom
)

func (True) prec() int        { return precAtom }
func (False) prec() int       { return precAtom }
func (PathAtom) prec() int    { return precAtom }
func (EqAtom) prec() int      { return precAtom }
func (CmpAtom) prec() int     { return precAtom }
func (RollupAtom) prec() int  { return precAtom }
func (ThroughAtom) prec() int { return precAtom }
func (Not) prec() int         { return precNot }
func (a And) prec() int       { return precAnd }
func (o Or) prec() int        { return precOr }
func (Implies) prec() int     { return precImplies }
func (Iff) prec() int         { return precIff }
func (Xor) prec() int         { return precXor }
func (One) prec() int         { return precAtom }

func (True) String() string          { return render(True{}) }
func (False) String() string         { return render(False{}) }
func (a PathAtom) String() string    { return render(a) }
func (a EqAtom) String() string      { return render(a) }
func (a CmpAtom) String() string     { return render(a) }
func (a RollupAtom) String() string  { return render(a) }
func (a ThroughAtom) String() string { return render(a) }
func (n Not) String() string         { return render(n) }
func (a And) String() string         { return render(a) }
func (o Or) String() string          { return render(o) }
func (i Implies) String() string     { return render(i) }
func (i Iff) String() string         { return render(i) }
func (x Xor) String() string         { return render(x) }
func (o One) String() string         { return render(o) }

// render is the String form of e: the whole tree is written into one
// builder, so rendering is linear in the size of the output however
// deeply e nests.
func render(e Expr) string {
	var b strings.Builder
	write(&b, e)
	return b.String()
}

// write appends the rendering of e to b.
func write(b *strings.Builder, e Expr) {
	switch e := e.(type) {
	case True:
		b.WriteString("true")
	case False:
		b.WriteString("false")
	case PathAtom:
		for i, c := range e.Cats {
			if i > 0 {
				b.WriteByte('_')
			}
			b.WriteString(c)
		}
	case EqAtom:
		writeQualified(b, e.RootCat, e.Cat)
		b.WriteByte('=')
		writeConst(b, e.Val)
	case CmpAtom:
		// The numeric constant uses the shortest decimal representation.
		writeQualified(b, e.RootCat, e.Cat)
		b.WriteString(e.Op.String())
		b.WriteString(FormatNum(e.Val))
	case RollupAtom:
		b.WriteString(e.RootCat)
		b.WriteByte('.')
		b.WriteString(e.Cat)
	case ThroughAtom:
		b.WriteString(e.RootCat)
		b.WriteByte('.')
		b.WriteString(e.Via)
		b.WriteByte('.')
		b.WriteString(e.Cat)
	case Not:
		b.WriteByte('!')
		writeWrapped(b, precNot-1, e.X)
	case And:
		writeJoined(b, " & ", "true", precAnd, e.Xs)
	case Or:
		writeJoined(b, " | ", "false", precOr, e.Xs)
	case Implies:
		// Right associative: a -> b -> c parses as a -> (b -> c).
		writeWrapped(b, precImplies, e.A)
		b.WriteString(" -> ")
		writeWrapped(b, precImplies-1, e.B)
	case Iff:
		writeWrapped(b, precIff, e.A)
		b.WriteString(" <-> ")
		writeWrapped(b, precIff, e.B)
	case Xor:
		writeWrapped(b, precXor, e.A)
		b.WriteString(" ^ ")
		writeWrapped(b, precXor, e.B)
	case One:
		b.WriteString("one(")
		for i, x := range e.Xs {
			if i > 0 {
				b.WriteString(", ")
			}
			write(b, x)
		}
		b.WriteByte(')')
	default:
		panic("constraint: unknown expression type")
	}
}

// writeQualified writes the category reference of an equality or order
// atom: root.cat, or just root when cat is the root itself.
func writeQualified(b *strings.Builder, root, cat string) {
	b.WriteString(root)
	if cat != root {
		b.WriteByte('.')
		b.WriteString(cat)
	}
}

// writeWrapped writes child, parenthesized when its precedence is at most
// the parent's (strict nesting keeps right-associativity of -> readable).
func writeWrapped(b *strings.Builder, parent int, child Expr) {
	if child.prec() <= parent {
		b.WriteByte('(')
		write(b, child)
		b.WriteByte(')')
		return
	}
	write(b, child)
}

// writeJoined writes an n-ary operator, parenthesizing children of equal
// or lower precedence so that a directly nested And/Or keeps its
// structure when re-parsed (the parser builds flat n-ary nodes).
func writeJoined(b *strings.Builder, op, empty string, parent int, xs []Expr) {
	if len(xs) == 0 {
		b.WriteString(empty)
		return
	}
	for i, x := range xs {
		if i > 0 {
			b.WriteString(op)
		}
		writeWrapped(b, parent, x)
	}
}

// writeConst writes a string constant with exactly the escapes the lexer
// understands: a backslash before '"', '\\' and newline; every other byte
// is emitted raw (the grammar's escape rule is "backslash makes the next
// byte literal", unlike Go's %q which invents \xNN forms).
func writeConst(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' || c == '\\' || c == '\n' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	b.WriteByte('"')
}

// FormatNum renders a numeric constant the way the parser reads it:
// plain decimal notation (the grammar has no exponent form).
func FormatNum(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// Equal reports structural equality of two expressions.
func Equal(a, b Expr) bool {
	switch a := a.(type) {
	case True:
		_, ok := b.(True)
		return ok
	case False:
		_, ok := b.(False)
		return ok
	case PathAtom:
		bb, ok := b.(PathAtom)
		if !ok || len(a.Cats) != len(bb.Cats) {
			return false
		}
		for i := range a.Cats {
			if a.Cats[i] != bb.Cats[i] {
				return false
			}
		}
		return true
	case EqAtom:
		bb, ok := b.(EqAtom)
		return ok && a == bb
	case CmpAtom:
		bb, ok := b.(CmpAtom)
		return ok && a == bb
	case RollupAtom:
		bb, ok := b.(RollupAtom)
		return ok && a == bb
	case ThroughAtom:
		bb, ok := b.(ThroughAtom)
		return ok && a == bb
	case Not:
		bb, ok := b.(Not)
		return ok && Equal(a.X, bb.X)
	case And:
		bb, ok := b.(And)
		return ok && equalSlices(a.Xs, bb.Xs)
	case Or:
		bb, ok := b.(Or)
		return ok && equalSlices(a.Xs, bb.Xs)
	case One:
		bb, ok := b.(One)
		return ok && equalSlices(a.Xs, bb.Xs)
	case Implies:
		bb, ok := b.(Implies)
		return ok && Equal(a.A, bb.A) && Equal(a.B, bb.B)
	case Iff:
		bb, ok := b.(Iff)
		return ok && Equal(a.A, bb.A) && Equal(a.B, bb.B)
	case Xor:
		bb, ok := b.(Xor)
		return ok && Equal(a.A, bb.A) && Equal(a.B, bb.B)
	}
	return false
}

func equalSlices(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
