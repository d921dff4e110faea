package main

import (
	"strings"
	"testing"

	"staub/internal/benchgen"
	"staub/internal/smt"
)

func mustItem(t *testing.T, name, src string, planted bool) *item {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return newItem(name, "QF_NIA", "test", c, planted)
}

const squareDiff = `(declare-fun x () Int) (declare-fun y () Int)
(assert (= (- (* x x) (* y y)) 201)) (assert (> x 90))`

func TestOracleAcceptsCorrectVerdicts(t *testing.T) {
	o := newOracle()
	it := mustItem(t, "refine/square-diff-201", squareDiff, false)
	for _, v := range []verdict{
		{status: "sat", model: map[string]string{"x": "101", "y": "100"}},
		{status: "sat", model: map[string]string{"x": "101", "y": "-100"}},
		{status: "unknown"},
	} {
		if !o.check(it, v) {
			t.Errorf("verdict %+v rejected: %v", v, o.failures)
		}
	}
	real := mustItem(t, "testdata/real_band", `(declare-fun x () Real) (assert (> x 1.5)) (assert (< (* x x) 4.0))`, false)
	if !o.check(real, verdict{status: "sat", model: map[string]string{"x": "7/4"}}) {
		t.Errorf("rational model rejected: %v", o.failures)
	}
}

func TestOracleCatchesFlippedVerdict(t *testing.T) {
	// A hand-derived sat reported unsat.
	o := newOracle()
	if o.check(mustItem(t, "refine/square-diff-201", squareDiff, false), verdict{status: "unsat"}) {
		t.Error("unsat for square-diff-201 (101² − 100² = 201) accepted")
	}
	// A hand-derived unsat reported sat, model and all.
	if o.check(mustItem(t, "refine/unsat-square-7", `(declare-fun x () Int) (assert (= (* x x) 7))`, false),
		verdict{status: "sat", model: map[string]string{"x": "3"}}) {
		t.Error("sat for unsat-square-7 accepted")
	}
	// Unsat on a planted-sat benchgen instance.
	insts, err := benchgen.Suite("QF_NIA", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	var planted *benchgen.Instance
	for i := range insts {
		if insts[i].PlantedSat {
			planted = &insts[i]
			break
		}
	}
	if planted == nil {
		t.Fatal("no planted instance in the suite")
	}
	if o.check(newItem(planted.Name, "QF_NIA", planted.Family, planted.Constraint, true), verdict{status: "unsat"}) {
		t.Errorf("unsat on planted-sat %s accepted", planted.Name)
	}
	if len(o.failures) != 3 {
		t.Errorf("failures = %q, want three", o.failures)
	}
}

func TestOracleCatchesCorruptedModel(t *testing.T) {
	o := newOracle()
	it := mustItem(t, "refine/square-diff-201", squareDiff, false)
	for _, model := range []map[string]string{
		{"x": "101", "y": "99"},  // wrong value
		{"x": "101"},             // missing variable
		{"x": "101", "y": "1e2"}, // not an integer
	} {
		if o.check(it, verdict{status: "sat", model: model}) {
			t.Errorf("corrupted model %v accepted", model)
		}
	}
}

func TestOracleCatchesDisagreement(t *testing.T) {
	o := newOracle()
	it := mustItem(t, "QF_NIA/probe", `(declare-fun x () Int) (assert (= (* x x) 49))`, false)
	if !o.check(it, verdict{status: "sat", model: map[string]string{"x": "-7"}}) {
		t.Fatalf("first verdict rejected: %v", o.failures)
	}
	if o.check(it, verdict{status: "unsat"}) {
		t.Error("unsat after sat for the same constraint accepted")
	}
	if len(o.failures) != 1 || !strings.Contains(o.failures[0], "contradicts") {
		t.Errorf("failures = %q", o.failures)
	}
}
