package overapprox

import (
	"fmt"

	"staub/internal/smt"
)

// Certify runs certify.
func Certify(c *smt.Constraint) (width int, hints map[string]int, root int, ok bool) {
	return certify(c)
}

// DerivedBounds runs deriveIntervals over c and renders every variable
// bound on at least one side as "[lo, hi]", with -oo/+oo for an open
// side.
func DerivedBounds(c *smt.Constraint) map[string]string {
	out := map[string]string{}
	for name, iv := range deriveIntervals(c.Vars, c.Assertions) {
		if iv.Lo.IsFinite() || iv.Hi.IsFinite() {
			out[name] = fmt.Sprintf("[%s, %s]", iv.Lo, iv.Hi)
		}
	}
	return out
}

// Linearize returns linearize-nia's abstraction of c, or nil when c has
// no nonlinear product.
func Linearize(c *smt.Constraint) (*smt.Constraint, error) {
	if !hasNonlinearMul(c) {
		return nil, nil
	}
	abs, _, _, err := linearize(c)
	return abs, err
}

// Residue runs the residue pass's search on c with a budget of budget
// nodes. It returns whether every DNF case was refuted, each case's
// refuting modulus when it was, and the nodes enumerated.
func Residue(c *smt.Constraint, budget int64) (refuted bool, moduli []int64, nodes int64) {
	r := refuteResidues(c, budget, func() bool { return false })
	return r.refuted, r.moduli, r.nodes
}
