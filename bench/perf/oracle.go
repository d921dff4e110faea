package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"

	"staub/internal/eval"
	"staub/internal/smt"
	"staub/internal/status"
)

// verdict is one response's answer about an item, as it came off the wire.
type verdict struct {
	status string
	model  map[string]string
}

func (v verdict) equal(o verdict) bool {
	if v.status != o.status || len(v.model) != len(o.model) {
		return false
	}
	for k, x := range v.model {
		if y, ok := o.model[k]; !ok || x != y {
			return false
		}
	}
	return true
}

// oracle checks verdicts independently of the solver that produced them:
// every sat model is re-evaluated exactly against the constraint the
// bench sent, a planted-sat instance may never be unsat, the fixed
// scripts' hand-derived verdicts must hold, and no two definitive
// verdicts for one constraint may disagree.
type oracle struct {
	decided  map[string]string // scriptKey → first definitive verdict
	failures []string
}

func newOracle() *oracle { return &oracle{decided: map[string]string{}} }

// scriptKey identifies a constraint across workloads and processes.
func scriptKey(script string) string {
	sum := sha256.Sum256([]byte(script))
	return hex.EncodeToString(sum[:12])
}

// check records one verdict about it and reports whether it passed.
func (o *oracle) check(it *item, v verdict) bool {
	if err := o.verify(it, v); err != nil {
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", it.name, err))
		return false
	}
	return true
}

func (o *oracle) verify(it *item, v verdict) error {
	var st status.Status
	switch v.status {
	case "sat":
		st = status.Sat
	case "unsat":
		st = status.Unsat
	case "unknown":
		return nil
	default:
		return fmt.Errorf("unrecognized status %q", v.status)
	}
	if st == status.Sat {
		asg, err := decodeModel(it.c, v.model)
		if err != nil {
			return fmt.Errorf("sat model: %w", err)
		}
		if ok, err := eval.Constraint(it.c, asg); err != nil || !ok {
			return fmt.Errorf("sat model %v does not satisfy the constraint (err %v)", v.model, err)
		}
	}
	if st == status.Unsat && it.planted {
		return fmt.Errorf("unsat on a planted-sat instance")
	}
	if it.expect != status.Unknown && st != it.expect {
		return fmt.Errorf("verdict %s, hand-derived %s", st, it.expect)
	}
	return o.agree(scriptKey(it.script), v.status)
}

// agree records a definitive verdict for key, failing when an earlier one
// disagrees.
func (o *oracle) agree(key, st string) error {
	if prev, ok := o.decided[key]; ok && prev != st {
		return fmt.Errorf("verdict %s contradicts an earlier %s for the same constraint", st, prev)
	}
	o.decided[key] = st
	return nil
}

// decodeModel parses a wire model into an assignment over c's variables.
func decodeModel(c *smt.Constraint, model map[string]string) (eval.Assignment, error) {
	asg := eval.Assignment{}
	for _, v := range c.Vars {
		text, ok := model[v.Name]
		if !ok {
			continue // unconstrained variables may be omitted; eval rejects a missing used one
		}
		val, err := decodeValue(v.Sort, text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.Name, err)
		}
		asg[v.Name] = val
	}
	return asg, nil
}

func decodeValue(s smt.Sort, text string) (eval.Value, error) {
	switch s.Kind {
	case smt.KindInt:
		n, ok := new(big.Int).SetString(text, 10)
		if !ok {
			return eval.Value{}, fmt.Errorf("bad integer %q", text)
		}
		return eval.IntValue(n), nil
	case smt.KindReal:
		r, ok := new(big.Rat).SetString(text)
		if !ok {
			return eval.Value{}, fmt.Errorf("bad real %q", text)
		}
		return eval.RatValue(r), nil
	case smt.KindBool:
		switch text {
		case "true":
			return eval.BoolValue(true), nil
		case "false":
			return eval.BoolValue(false), nil
		}
		return eval.Value{}, fmt.Errorf("bad boolean %q", text)
	default:
		return eval.Value{}, fmt.Errorf("sort %v does not occur in the corpus", s)
	}
}
