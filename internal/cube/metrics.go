package cube

import "staub/internal/metrics"

// Package-level cube-and-conquer counters, declared on metrics.Process
// and so exported to /metrics and `staub-bench -v`: solves run, solves
// the probe decided outright, cube legs raced, sat/unsat leg outcomes,
// clauses exported by legs and adopted by siblings, and fault-driven
// sequential fallbacks. They accumulate across every cube solve in the
// process.
var (
	cubeSolves          = metrics.Process.Counter("staub_cube_solves_total", nil)
	cubeProbeDecides    = metrics.Process.Counter("staub_cube_probe_decides_total", nil)
	cubeLegs            = metrics.Process.Counter("staub_cube_legs_total", nil)
	cubeSatLegs         = metrics.Process.Counter("staub_cube_sat_legs_total", nil)
	cubeUnsatLegs       = metrics.Process.Counter("staub_cube_unsat_legs_total", nil)
	cubeSharedClauses   = metrics.Process.Counter("staub_cube_shared_clauses_total", nil)
	cubeImportedClauses = metrics.Process.Counter("staub_cube_imported_clauses_total", nil)
	cubeFallbacks       = metrics.Process.Counter("staub_cube_fallbacks_total", nil)
)
