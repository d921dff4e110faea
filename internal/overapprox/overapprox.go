// Package overapprox contributes the over-approximating pipeline passes:
// residue refutes integer equalities by enumerating their residues modulo
// small m (reduction mod m is a ring homomorphism, so a system with no
// residue solution has no integer one); linearize-nia abstracts nonlinear
// multiplication into fresh product variables constrained by eagerly
// instantiated axioms (sign, zero, unit, magnitude, squares, interval
// products — the Certora-style linearization of arXiv:2402.10174 realized
// without uninterpreted functions); and infer-apriori-bounds certifies,
// from interval propagation over the linear fragment or a Papadimitriou
// small-model bound, a bitvector width COMPLETE for the constraint (the
// Bromberger a-priori bounds of arXiv:1804.07703) — under which a
// bounded-unsat outcome is a sound unsat for the original constraint, the
// mirror image of STAUB's under-approximation.
//
// The package registers its passes from init, keeping the dependency
// pointing overapprox→pipeline exactly like internal/reduce and
// internal/cube. pipeline.RunOverApprox assembles them per
// pipeline.OverApproxPassNames; the approximation-direction lattice
// (pipeline.Direction) carries the soundness argument: a residue
// refutation and linearization compose DirOver, a certified translation
// DirExact, and pipeline.SoundStatus turns bounded-unsat into unsat only
// under those directions.
package overapprox

import (
	"fmt"
	"time"

	"staub/internal/chaos"
	"staub/internal/pipeline"
)

func init() {
	pipeline.Register(pipeline.Pass{
		Name: pipeline.PassResidue,
		Doc:  "refute integer equalities by enumerating their residues modulo small m (over-approximation)",
		Run:  passResidue,
	})
	pipeline.Register(pipeline.Pass{
		Name: pipeline.PassLinearizeNIA,
		Doc:  "abstract nonlinear multiplication into fresh product variables with eager axiom instantiation (over-approximation)",
		Run:  passLinearizeNIA,
	})
	pipeline.Register(pipeline.Pass{
		Name: pipeline.PassInferApriori,
		Doc:  "certify a complete bitvector width from a-priori bounds (interval propagation / small-model), or fall back to the linear engines",
		Run:  passInferApriori,
	})
}

// Chaos sites instrumenting the over-approximating passes. Any injected
// fault (except a pass panic, which the pass framework contains as
// OutcomeError) reverts the round as transform-failed: the over leg gives
// up gracefully, the portfolio proceeds on the other legs, and no fault
// class can ever flip a verdict or degrade the portfolio.
const (
	siteResidue   = "over:residue"
	siteLinearize = "over:linearize"
	siteBounds    = "over:bounds"
)

// checkSite consults the chaos registry at site. The second return is
// true when a fault was injected and the pass must return the verdict.
func checkSite(st *pipeline.State, site string) (pipeline.Verdict, bool) {
	switch chaos.At(site) {
	case chaos.FaultNone:
		return pipeline.Continue, false
	case chaos.FaultPassPanic:
		panic(chaos.Injected{Site: site})
	case chaos.FaultSolverStall:
		chaos.Stall(0, func() bool {
			if st.Interrupt != nil && st.Interrupt.Load() {
				return true
			}
			if st.Ctx != nil && st.Ctx.Err() != nil {
				return true
			}
			return !st.Deadline.IsZero() && time.Now().After(st.Deadline)
		})
	}
	return pipeline.FailTransform(st, fmt.Errorf("overapprox: injected fault at %s", site)), true
}
