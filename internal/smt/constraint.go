package smt

import (
	"fmt"
	"sort"
	"strings"
)

// Constraint is a complete SMT problem: a logic name, a set of declared
// variables, and a conjunction of assertions. All terms belong to Builder.
type Constraint struct {
	// Logic is the SMT-LIB logic name, e.g. "QF_NIA". It may be empty if
	// the source script did not set one.
	Logic string
	// Builder owns every term in the constraint.
	Builder *Builder
	// Vars lists the declared variables in declaration order.
	Vars []*Term
	// Assertions lists the asserted boolean terms in order.
	Assertions []*Term
}

// NewConstraint returns an empty constraint with a fresh builder.
func NewConstraint(logic string) *Constraint {
	return &Constraint{Logic: logic, Builder: NewBuilder()}
}

// Declare adds a new variable of the given sort.
func (c *Constraint) Declare(name string, s Sort) (*Term, error) {
	if _, ok := c.Builder.LookupVar(name); ok {
		return nil, fmt.Errorf("smt: variable %q already declared", name)
	}
	v, err := c.Builder.Var(name, s)
	if err != nil {
		return nil, err
	}
	c.Vars = append(c.Vars, v)
	return v, nil
}

// MustDeclare is Declare, panicking on error.
func (c *Constraint) MustDeclare(name string, s Sort) *Term {
	v, err := c.Declare(name, s)
	if err != nil {
		panic(err)
	}
	return v
}

// Assert appends a boolean term to the assertion list.
func (c *Constraint) Assert(t *Term) error {
	if t.Sort.Kind != KindBool {
		return fmt.Errorf("smt: assertion has sort %v, want Bool", t.Sort)
	}
	c.Assertions = append(c.Assertions, t)
	return nil
}

// MustAssert is Assert, panicking on error.
func (c *Constraint) MustAssert(t *Term) {
	if err := c.Assert(t); err != nil {
		panic(err)
	}
}

// NumNodes returns the number of distinct DAG nodes across all assertions.
func (c *Constraint) NumNodes() int {
	seen := map[*Term]bool{}
	count := 0
	var walk func(t *Term)
	walk = func(t *Term) {
		if seen[t] {
			return
		}
		seen[t] = true
		count++
		for _, a := range t.Args {
			walk(a)
		}
	}
	for _, a := range c.Assertions {
		walk(a)
	}
	return count
}

// LargestConstBits returns the maximum over all integer and real constants
// in the constraint of the bit width of the constant's integer magnitude
// (ceil of magnitude), and true if any such constant exists. This is the
// source of the variable-width assumption x in Section 4.2.
func (c *Constraint) LargestConstBits() (int, bool) {
	max, found := 0, false
	for _, a := range c.Assertions {
		a.Walk(func(t *Term) bool {
			var bits int
			switch t.Op {
			case OpIntConst:
				bits = t.IntVal.BitLen()
			case OpRealConst:
				bits = CeilAbsBits(t.RatVal)
			default:
				return true
			}
			found = true
			if bits > max {
				max = bits
			}
			return true
		})
	}
	return max, found
}

// Script renders the constraint as a complete SMT-LIB script, including
// set-logic, declarations, assertions, and a check-sat command.
func (c *Constraint) Script() string {
	var b strings.Builder
	if c.Logic != "" {
		fmt.Fprintf(&b, "(set-logic %s)\n", c.Logic)
	}
	for _, v := range c.Vars {
		fmt.Fprintf(&b, "(declare-fun %s () %s)\n", v.Name, v.Sort)
	}
	for _, a := range c.Assertions {
		fmt.Fprintf(&b, "(assert %s)\n", a)
	}
	b.WriteString("(check-sat)\n")
	return b.String()
}

// SortedVarNames returns the declared variable names in lexicographic
// order; useful for deterministic model printing.
func (c *Constraint) SortedVarNames() []string {
	names := make([]string, len(c.Vars))
	for i, v := range c.Vars {
		names[i] = v.Name
	}
	sort.Strings(names)
	return names
}
