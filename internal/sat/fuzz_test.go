package sat

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDIMACS feeds arbitrary text through the DIMACS parser and, when it
// parses, solves the instance (with preprocessing and a conflict cap),
// verifies any Sat model against the original clauses, and round-trips
// the problem through WriteDIMACS → ParseDIMACS checking the verdict is
// stable. The invariant is "no panics, no unsound models, re-emit
// preserves the verdict" — not any particular verdict, since fuzzed
// instances may be cut off by the cap.
func FuzzDIMACS(f *testing.F) {
	f.Add("p cnf 2 2\n1 2 0\n-1 -2 0\n")
	f.Add("p cnf 3 4\nc a comment\n1 -2 3 0\n-1 2 0\n2 -3 0\n-2 0\n")
	f.Add("p cnf 1 2\n1 0\n-1 0\n")
	f.Add("p cnf 0 0\n")
	f.Add("p cnf 4 3\n1 2 3 4 0\n-1 -2 0 -3 -4 0\n")
	f.Add("c only comments\nc p cnf 9 9\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		s, err := ParseDIMACS(strings.NewReader(in))
		if err != nil {
			return
		}
		// Snapshot the parsed problem before solving mutates the database.
		var orig bytes.Buffer
		if err := s.WriteDIMACS(&orig); err != nil {
			t.Fatalf("WriteDIMACS: %v", err)
		}
		clauses := make([][]Lit, len(s.clauses))
		for i, c := range s.clauses {
			clauses[i] = append([]Lit(nil), s.clsLits(c)...)
		}
		units := append([]Lit(nil), s.unitsOnTrail()...)
		s.ConflictCap = 10_000
		s.ReduceFirst = 64
		s.Preprocess()
		st := s.Solve()
		if st == Sat {
			for ci, cl := range clauses {
				ok := false
				for _, l := range cl {
					if s.Value(l.Var()) != l.Sign() {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("model does not satisfy clause %d (%v)", ci, cl)
				}
			}
			for _, l := range units {
				if s.Value(l.Var()) == l.Sign() {
					t.Fatalf("model flips level-0 unit %v", l)
				}
			}
		}
		// Round-trip: the re-emitted problem must parse and, when the
		// verdict was decided, agree with it.
		s2, err := ParseDIMACS(bytes.NewReader(orig.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of WriteDIMACS output failed: %v\n%s", err, orig.String())
		}
		if st == Unknown {
			return
		}
		s2.ConflictCap = 100_000
		if st2 := s2.Solve(); st2 != Unknown && st2 != st {
			t.Fatalf("round-trip verdict %v != original %v", st2, st)
		}
	})
}
