// Package core implements the reasoning services of Hurtado & Mendelzon,
// "OLAP Dimension Constraints" (PODS 2002): category satisfiability via the
// DIMSAT algorithm (Section 5, Figure 6), implication of dimension
// constraints (Theorem 2), and summarizability testing (Theorem 1), over
// dimension schemas ds = (G, Σ).
package core

import (
	"fmt"
	"sort"
	"strings"

	"olapdim/internal/constraint"
	"olapdim/internal/schema"
)

// DimensionSchema is a dimension schema ds = (G, Σ): a hierarchy schema
// together with a set of dimension constraints over it (Section 3.1).
type DimensionSchema struct {
	G     *schema.Schema
	Sigma []constraint.Expr
}

// NewDimensionSchema bundles a hierarchy schema and constraints.
func NewDimensionSchema(g *schema.Schema, sigma ...constraint.Expr) *DimensionSchema {
	return &DimensionSchema{G: g, Sigma: sigma}
}

// Validate checks the hierarchy schema (Definition 1) and every constraint
// (Definition 3) for well-formedness.
func (ds *DimensionSchema) Validate() error {
	if ds.G == nil {
		return fmt.Errorf("core: nil hierarchy schema")
	}
	if err := ds.G.Validate(); err != nil {
		return err
	}
	for _, e := range ds.Sigma {
		if err := constraint.Validate(e, ds.G); err != nil {
			return err
		}
	}
	return nil
}

// AddConstraint validates and appends a constraint to Σ.
func (ds *DimensionSchema) AddConstraint(e constraint.Expr) error {
	if err := constraint.Validate(e, ds.G); err != nil {
		return err
	}
	ds.Sigma = append(ds.Sigma, e)
	return nil
}

// String renders the dimension schema: the hierarchy schema followed by
// constraints in order.
func (ds *DimensionSchema) String() string {
	var b strings.Builder
	b.WriteString(ds.G.String())
	for _, e := range ds.Sigma {
		fmt.Fprintf(&b, "constraint %s\n", e)
	}
	return b.String()
}

// SummarizabilityConstraint builds the Theorem 1 characterization for one
// bottom category cb: cb.c ⊃ ⊙_{ci ∈ S} cb.ci.c. A category c is
// summarizable from S iff this constraint holds for every bottom category.
func SummarizabilityConstraint(cb, c string, S []string) constraint.Expr {
	return summarizabilityConstraint(cb, c, sortedCopy(S))
}

// summarizabilityConstraint is SummarizabilityConstraint over an already
// sorted source set ss.
func summarizabilityConstraint(cb, c string, ss []string) constraint.Expr {
	xs := make([]constraint.Expr, len(ss))
	for i, ci := range ss {
		xs[i] = constraint.ThroughAtom{RootCat: cb, Via: ci, Cat: c}
	}
	return constraint.Implies{
		A: constraint.RollupAtom{RootCat: cb, Cat: c},
		B: constraint.One{Xs: xs},
	}
}

// sortedCopy returns S sorted, leaving S untouched.
func sortedCopy(S []string) []string {
	ss := append([]string(nil), S...)
	sort.Strings(ss)
	return ss
}
