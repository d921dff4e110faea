package overapprox_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"staub/internal/benchgen"
	"staub/internal/harness"
	"staub/internal/overapprox"
	"staub/internal/smt"
)

var update = flag.Bool("update", false, "rewrite testdata/certify.golden from the current output")

// TestCertifyGolden pins what infer-apriori-bounds derives across a fixed
// corpus: certify's verdict, width, root and hints, every variable bound
// interval propagation finds, and, for each nonlinear instance, the hash
// of linearize-nia's abstraction script together with the same record
// for the abstraction. The corpus is benchgen QF_NIA and QF_LIA at seeds
// 1–3, the refinement corpus and the repository's testdata scripts.
func TestCertifyGolden(t *testing.T) {
	var b strings.Builder
	for _, inst := range certifyCorpus(t) {
		fmt.Fprintf(&b, "%s %s\n", inst.name, certifyRecord(inst.c))
		abs, err := overapprox.Linearize(inst.c)
		if err != nil {
			fmt.Fprintf(&b, "%s/linearized error=%v\n", inst.name, err)
			continue
		}
		if abs != nil {
			fmt.Fprintf(&b, "%s/linearized sha256=%x %s\n", inst.name, sha256.Sum256([]byte(abs.Script())), certifyRecord(abs))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "certify.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gotLines), len(wantLines))
}

type namedConstraint struct {
	name string
	c    *smt.Constraint
}

func certifyCorpus(t *testing.T) []namedConstraint {
	t.Helper()
	var out []namedConstraint
	for _, suite := range []struct {
		logic string
		n     int
	}{{"QF_NIA", 100}, {"QF_LIA", 60}} {
		for seed := int64(1); seed <= 3; seed++ {
			insts, err := benchgen.Suite(suite.logic, suite.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range insts {
				out = append(out, namedConstraint{fmt.Sprintf("s%d/%s", seed, inst.Name), inst.Constraint})
			}
		}
	}
	for _, ri := range harness.RefinementCorpus() {
		out = append(out, namedConstraint{"refine/" + ri.Name, parseScript(t, ri.Src)})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.smt2"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata scripts: %v (%d found)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedConstraint{"testdata/" + filepath.Base(f), parseScript(t, string(src))})
	}
	return out
}

func parseScript(t *testing.T, src string) *smt.Constraint {
	t.Helper()
	c, err := smt.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// certifyRecord renders certify's result and the derived bounds of c
// with names sorted.
func certifyRecord(c *smt.Constraint) string {
	width, hints, root, ok := overapprox.Certify(c)
	bounds := overapprox.DerivedBounds(c)
	hintList := make([]string, 0, len(hints))
	for name, w := range hints {
		hintList = append(hintList, fmt.Sprintf("%s:%d", name, w))
	}
	boundList := make([]string, 0, len(bounds))
	for name, iv := range bounds {
		boundList = append(boundList, name+":"+iv)
	}
	sort.Strings(hintList)
	sort.Strings(boundList)
	return fmt.Sprintf("ok=%t width=%d root=%d hints={%s} bounds={%s}",
		ok, width, root, strings.Join(hintList, " "), strings.Join(boundList, " "))
}
