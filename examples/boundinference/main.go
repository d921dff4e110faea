// Boundinference walks through the paper's Section 4.2 abstract
// interpretation on two constraints: the Figure 4 integer example (where
// the largest constant's width is insufficient for the satisfying
// assignment, and the abstract semantics add headroom), and a real-number
// constraint exercising the (magnitude, precision) pair domain.
package main

import (
	"fmt"
	"log"

	"staub/internal/absint"
	"staub/internal/smt"
)

func main() {
	integerExample()
	fmt.Println()
	realExample()
}

// integerExample reproduces Figure 4: a = 15 forces b >= 16 in any model,
// so the largest-constant width 4 alone would be insufficient; the
// subtraction's abstract semantics add the extra bit.
func integerExample() {
	c, err := smt.ParseScript(`
		(declare-fun a () Int)
		(declare-fun b () Int)
		(assert (>= a 15))
		(assert (< (- a b) 0))
		(check-sat)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Integer constraint (paper Figure 4):")
	fmt.Print(c.Script())

	x := absint.DefaultIntX(c)
	fmt.Printf("\nVariable width assumption x = %d (largest constant 15 plus one bit)\n", x)

	res := absint.InferIntWith(c, x, absint.SemPractical)
	fmt.Println("\nPer-node widths (AST of the second assertion):")
	for _, a := range c.Assertions {
		a.Walk(func(t *smt.Term) bool {
			fmt.Printf("  width %2d  ⊢  %s\n", res.PerNode[t], t)
			return true
		})
	}
	fmt.Printf("\nInferred root width [S] = %d\n", res.Root)

	sound := absint.InferInt(c, x)
	fmt.Printf("Sound-semantics root width = %d (Theorem 4.5 guarantees intermediates fit)\n", sound.Root)
}

// realExample shows the (m, p) domain: magnitudes and precisions compose
// differently under addition and multiplication, and division adds
// precision on both components per the implementation note in §4.2.
func realExample() {
	c, err := smt.ParseScript(`
		(declare-fun u () Real)
		(declare-fun v () Real)
		(assert (> (* u v) 12.5))
		(assert (< (+ u (/ v 4.0)) 3.25))
		(check-sat)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Real constraint:")
	fmt.Print(c.Script())

	x := absint.DefaultRealX(c)
	fmt.Printf("\nVariable assumption (x_m, x_p) = %v\n", x)

	res := absint.InferReal(c, x)
	fmt.Printf("Inferred root (m, p) = %v\n", res.Root)

	sort := absint.SelectFPSort(res.Root)
	fmt.Printf("Selected floating-point sort: %v\n", sort)

	fmt.Println("\nPer-node (m, p) for each assertion:")
	for _, a := range c.Assertions {
		a.Walk(func(t *smt.Term) bool {
			fmt.Printf("  %-12s ⊢  %s\n", res.PerNode[t], t)
			return true
		})
	}
}
