// Package poly represents integer and real SMT terms as multivariate
// polynomials with rational coefficients and extracts conjunctions of
// polynomial atoms (p ⋈ 0) from constraints. The unbounded solvers
// (intsolver, realsolver) work on this normal form: linear atoms feed the
// simplex core, nonlinear ones the interval branch-and-prune engine.
package poly

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"staub/internal/interval"
	"staub/internal/smt"
)

// Monomial is a canonical encoding of a power product: variable names
// sorted and joined with '*' (repeated for powers), or "" for the constant
// monomial. '*' and '"' are legal in SMT-LIB symbols and || is a legal
// empty one, so a name that is empty or contains '*' or '"' is written Go
// quoted (strconv.Quote) with each '*' escaped as \x2a. '*' then only
// separates factors and the encoding is injective; every other name is
// written as is.
type Monomial string

// MonomialOf builds a monomial from an unsorted list of variable names.
func MonomialOf(vars ...string) Monomial {
	sort.Strings(vars)
	var b strings.Builder
	for i, v := range vars {
		if i > 0 {
			b.WriteByte('*')
		}
		b.WriteString(quoteName(v))
	}
	return Monomial(b.String())
}

// quoteName is the encoding of one variable name inside a monomial.
func quoteName(name string) string {
	if name == "" || strings.ContainsAny(name, `*"`) {
		return strings.ReplaceAll(strconv.Quote(name), "*", `\x2a`)
	}
	return name
}

// Vars returns the variable names of the monomial with multiplicity.
func (m Monomial) Vars() []string {
	if m == "" {
		return nil
	}
	vars := strings.Split(string(m), "*")
	for i, v := range vars {
		if strings.HasPrefix(v, `"`) {
			if name, err := strconv.Unquote(v); err == nil {
				vars[i] = name
			}
		}
	}
	return vars
}

// Degree returns the total degree of the monomial.
func (m Monomial) Degree() int {
	if m == "" {
		return 0
	}
	return strings.Count(string(m), "*") + 1
}

// mul multiplies two monomials.
func (m Monomial) mul(o Monomial) Monomial {
	if m == "" {
		return o
	}
	if o == "" {
		return m
	}
	return MonomialOf(append(m.Vars(), o.Vars()...)...)
}

// Poly is a polynomial: a map from monomials to nonzero rational
// coefficients. The nil map is the zero polynomial.
type Poly map[Monomial]*big.Rat

// Zero returns the zero polynomial.
func Zero() Poly { return Poly{} }

// Const returns a constant polynomial.
func Const(v *big.Rat) Poly {
	p := Poly{}
	if v.Sign() != 0 {
		p[""] = new(big.Rat).Set(v)
	}
	return p
}

// Var returns the polynomial consisting of a single variable.
func Var(name string) Poly {
	return Poly{Monomial(quoteName(name)): new(big.Rat).SetInt64(1)}
}

// Coeff returns the coefficient of the variable name's degree-1 monomial
// in p, or nil when p has none.
func (p Poly) Coeff(name string) *big.Rat {
	return p[Monomial(quoteName(name))]
}

// Clone returns a deep copy.
func (p Poly) Clone() Poly {
	out := make(Poly, len(p))
	for m, c := range p {
		out[m] = new(big.Rat).Set(c)
	}
	return out
}

// AddInPlace adds c*q into p.
func (p Poly) AddInPlace(q Poly, c *big.Rat) {
	for m, qc := range q {
		t := new(big.Rat).Mul(qc, c)
		if pc, ok := p[m]; ok {
			pc.Add(pc, t)
			if pc.Sign() == 0 {
				delete(p, m)
			}
		} else if t.Sign() != 0 {
			p[m] = t
		}
	}
}

// Add returns p + q.
func (p Poly) Add(q Poly) Poly {
	out := p.Clone()
	out.AddInPlace(q, big.NewRat(1, 1))
	return out
}

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly {
	out := p.Clone()
	out.AddInPlace(q, big.NewRat(-1, 1))
	return out
}

// Neg returns -p.
func (p Poly) Neg() Poly {
	out := make(Poly, len(p))
	for m, c := range p {
		out[m] = new(big.Rat).Neg(c)
	}
	return out
}

// Mul returns p * q.
func (p Poly) Mul(q Poly) Poly {
	out := Poly{}
	for m1, c1 := range p {
		for m2, c2 := range q {
			m := m1.mul(m2)
			t := new(big.Rat).Mul(c1, c2)
			if pc, ok := out[m]; ok {
				pc.Add(pc, t)
				if pc.Sign() == 0 {
					delete(out, m)
				}
			} else if t.Sign() != 0 {
				out[m] = t
			}
		}
	}
	return out
}

// Scale returns c * p.
func (p Poly) Scale(c *big.Rat) Poly {
	if c.Sign() == 0 {
		return Zero()
	}
	out := make(Poly, len(p))
	for m, pc := range p {
		out[m] = new(big.Rat).Mul(pc, c)
	}
	return out
}

// Degree returns the total degree (0 for constants and the zero
// polynomial).
func (p Poly) Degree() int {
	d := 0
	for m := range p {
		if md := m.Degree(); md > d {
			d = md
		}
	}
	return d
}

// IsLinear reports whether every monomial has degree <= 1.
func (p Poly) IsLinear() bool { return p.Degree() <= 1 }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(p) == 0 }

// ConstPart returns the constant coefficient.
func (p Poly) ConstPart() *big.Rat {
	if c, ok := p[""]; ok {
		return new(big.Rat).Set(c)
	}
	return new(big.Rat)
}

// Vars returns the distinct variable names in p, sorted.
func (p Poly) Vars() []string {
	set := map[string]bool{}
	for m := range p {
		for _, v := range m.Vars() {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Eval evaluates p at the given rational point. Missing variables are an
// error.
func (p Poly) Eval(point map[string]*big.Rat) (*big.Rat, error) {
	sum := new(big.Rat)
	for m, c := range p {
		term := new(big.Rat).Set(c)
		for _, v := range m.Vars() {
			val, ok := point[v]
			if !ok {
				return nil, fmt.Errorf("poly: unassigned variable %q", v)
			}
			term.Mul(term, val)
		}
		sum.Add(sum, term)
	}
	return sum, nil
}

// EvalInterval returns an enclosure of p over the box (variable name →
// interval). Variables absent from the box are treated as unbounded.
// Power products group repeated variables through Pow for tighter even
// powers.
func (p Poly) EvalInterval(box map[string]interval.Interval) interval.Interval {
	sum := interval.Point(new(big.Rat))
	for m, c := range p {
		term := interval.Point(new(big.Rat).Set(c))
		vars := m.Vars()
		for i := 0; i < len(vars); {
			j := i
			for j < len(vars) && vars[j] == vars[i] {
				j++
			}
			iv, ok := box[vars[i]]
			if !ok {
				iv = interval.Full()
			}
			term = term.Mul(iv.Pow(j - i))
			i = j
		}
		sum = sum.Add(term)
	}
	return sum
}

// String renders the polynomial deterministically.
func (p Poly) String() string {
	if len(p) == 0 {
		return "0"
	}
	ms := make([]string, 0, len(p))
	for m := range p {
		ms = append(ms, string(m))
	}
	sort.Strings(ms)
	var b strings.Builder
	for i, m := range ms {
		if i > 0 {
			b.WriteString(" + ")
		}
		c := p[Monomial(m)]
		if m == "" {
			b.WriteString(c.RatString())
		} else if c.Cmp(big.NewRat(1, 1)) == 0 {
			b.WriteString(m)
		} else {
			fmt.Fprintf(&b, "%s*%s", c.RatString(), m)
		}
	}
	return b.String()
}

// Rel is a relation of an atom p ⋈ 0.
type Rel int

// Atom relations.
const (
	RelEq Rel = iota // p = 0
	RelNe            // p ≠ 0
	RelLe            // p <= 0
	RelLt            // p < 0
)

func (r Rel) String() string {
	switch r {
	case RelEq:
		return "="
	case RelNe:
		return "≠"
	case RelLe:
		return "<="
	default:
		return "<"
	}
}

// Satisfied reports whether a value of p with the given sign (-1, 0 or
// 1) satisfies p ⋈ 0.
func (r Rel) Satisfied(sign int) bool {
	switch r {
	case RelEq:
		return sign == 0
	case RelNe:
		return sign != 0
	case RelLe:
		return sign <= 0
	default:
		return sign < 0
	}
}

// Atom is a polynomial constraint p ⋈ 0.
type Atom struct {
	P   Poly
	Rel Rel
}

func (a Atom) String() string { return fmt.Sprintf("%s %s 0", a.P, a.Rel) }

// Holds evaluates the atom at a rational point.
func (a Atom) Holds(point map[string]*big.Rat) (bool, error) {
	v, err := a.P.Eval(point)
	if err != nil {
		return false, err
	}
	return a.Rel.Satisfied(v.Sign()), nil
}

// Refuted reports whether the atom is definitely false over the box.
func (a Atom) Refuted(box map[string]interval.Interval) bool {
	iv := a.P.EvalInterval(box)
	switch a.Rel {
	case RelEq:
		return iv.ExcludesZero()
	case RelNe:
		return iv.IsPoint() && iv.Lo.V.Sign() == 0
	case RelLe:
		return iv.DefinitelyPositive()
	default:
		return iv.DefinitelyNonNegative()
	}
}

// Certain reports whether the atom is definitely true over the box.
func (a Atom) Certain(box map[string]interval.Interval) bool {
	iv := a.P.EvalInterval(box)
	switch a.Rel {
	case RelEq:
		return iv.IsPoint() && iv.Lo.V.Sign() == 0
	case RelNe:
		return iv.ExcludesZero()
	case RelLe:
		return iv.DefinitelyNonPositive()
	default:
		return iv.DefinitelyNegative()
	}
}

// FromTerm converts a numeric term (Int or Real sorted) into a polynomial.
// Division by a nonzero constant becomes a coefficient; any other
// division, mod, abs or ite is rejected. The result shares no map or
// coefficient with any other polynomial, so callers may update it in
// place.
func FromTerm(t *smt.Term) (Poly, error) {
	switch t.Op {
	case smt.OpVar:
		return Var(t.Name), nil
	case smt.OpIntConst:
		return Const(new(big.Rat).SetInt(t.IntVal)), nil
	case smt.OpRealConst:
		return Const(t.RatVal), nil
	case smt.OpNeg:
		p, err := FromTerm(t.Args[0])
		if err != nil {
			return nil, err
		}
		return p.Neg(), nil
	case smt.OpAdd, smt.OpSub:
		acc, err := FromTerm(t.Args[0])
		if err != nil {
			return nil, err
		}
		sign := big.NewRat(1, 1)
		if t.Op == smt.OpSub {
			sign = big.NewRat(-1, 1)
		}
		for _, a := range t.Args[1:] {
			q, err := FromTerm(a)
			if err != nil {
				return nil, err
			}
			acc.AddInPlace(q, sign)
		}
		return acc, nil
	case smt.OpMul:
		acc, err := FromTerm(t.Args[0])
		if err != nil {
			return nil, err
		}
		for _, a := range t.Args[1:] {
			q, err := FromTerm(a)
			if err != nil {
				return nil, err
			}
			acc = acc.Mul(q)
		}
		return acc, nil
	case smt.OpDiv:
		acc, err := FromTerm(t.Args[0])
		if err != nil {
			return nil, err
		}
		for _, a := range t.Args[1:] {
			q, err := FromTerm(a)
			if err != nil {
				return nil, err
			}
			if !q.IsZero() && q.Degree() == 0 {
				c := q.ConstPart()
				acc = acc.Scale(new(big.Rat).Inv(c))
				continue
			}
			return nil, fmt.Errorf("poly: non-constant division")
		}
		return acc, nil
	case smt.OpToReal:
		return FromTerm(t.Args[0])
	}
	return nil, fmt.Errorf("poly: term %v is not polynomial", t.Op)
}

// AtomFromTerm converts a boolean comparison term into one or more atoms
// whose conjunction is equivalent.
func AtomFromTerm(t *smt.Term) ([]Atom, error) {
	mk := func(l, r *smt.Term, rel Rel, flip bool) (Atom, error) {
		pl, err := FromTerm(l)
		if err != nil {
			return Atom{}, err
		}
		pr, err := FromTerm(r)
		if err != nil {
			return Atom{}, err
		}
		if flip {
			pl, pr = pr, pl
		}
		pl.AddInPlace(pr, big.NewRat(-1, 1))
		return Atom{P: pl, Rel: rel}, nil
	}
	var out []Atom
	switch t.Op {
	case smt.OpEq, smt.OpLe, smt.OpLt, smt.OpGe, smt.OpGt:
		var rel Rel
		flip := false
		switch t.Op {
		case smt.OpEq:
			rel = RelEq
		case smt.OpLe:
			rel = RelLe
		case smt.OpLt:
			rel = RelLt
		case smt.OpGe:
			rel, flip = RelLe, true
		case smt.OpGt:
			rel, flip = RelLt, true
		}
		for i := 0; i+1 < len(t.Args); i++ {
			a, err := mk(t.Args[i], t.Args[i+1], rel, flip)
			if err != nil {
				return nil, err
			}
			out = append(out, a)
		}
		return out, nil
	case smt.OpDistinct:
		if len(t.Args) == 2 {
			a, err := mk(t.Args[0], t.Args[1], RelNe, false)
			if err != nil {
				return nil, err
			}
			return []Atom{a}, nil
		}
		return nil, fmt.Errorf("poly: n-ary distinct is not a conjunction of atoms")
	case smt.OpNot:
		inner, err := AtomFromTerm(t.Args[0])
		if err != nil || len(inner) != 1 {
			return nil, fmt.Errorf("poly: cannot negate composite atom")
		}
		return []Atom{negateAtom(inner[0])}, nil
	}
	return nil, fmt.Errorf("poly: term %v is not an atom", t.Op)
}

func negateAtom(a Atom) Atom {
	switch a.Rel {
	case RelEq:
		return Atom{P: a.P, Rel: RelNe}
	case RelNe:
		return Atom{P: a.P, Rel: RelEq}
	case RelLe: // not(p <= 0)  ==  -p < 0
		return Atom{P: a.P.Neg(), Rel: RelLt}
	default: // not(p < 0)  ==  -p <= 0
		return Atom{P: a.P.Neg(), Rel: RelLe}
	}
}
