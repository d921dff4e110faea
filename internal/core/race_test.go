package core

import (
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/pipeline"
	"staub/internal/status"
)

// waitFlag polls f until it is raised or d passes, and reports whether
// it was raised.
func waitFlag(f *atomic.Bool, d time.Duration) bool {
	for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if f.Load() {
			return true
		}
	}
	return f.Load()
}

// after is a leg body that waits until released is closed plus a grace
// period, then answers unknown if its own flag was raised meanwhile and
// st otherwise. The grace period gives a wrongly raised flag time to
// arrive.
func after(released <-chan struct{}, st status.Status) func(*atomic.Bool) PipelineResult {
	return func(interrupt *atomic.Bool) PipelineResult {
		<-released
		if waitFlag(interrupt, 50*time.Millisecond) {
			return PipelineResult{Status: status.Unknown}
		}
		return PipelineResult{Status: st}
	}
}

// TestRaceRules drives race with stub legs and pins its four rules.
func TestRaceRules(t *testing.T) {
	t.Run("first winning verdict cancels every other leg", func(t *testing.T) {
		var cancelled [2]atomic.Bool
		// A leg that was interrupted answers unsat, which it may win with:
		// the race must keep the first verdict.
		loser := func(k int) func(*atomic.Bool) PipelineResult {
			return func(interrupt *atomic.Bool) PipelineResult {
				if !waitFlag(interrupt, 10*time.Second) {
					return PipelineResult{Status: status.Unknown}
				}
				cancelled[k].Store(true)
				return PipelineResult{Status: status.Unsat}
			}
		}
		results, winner := race([]leg{
			{"unbounded", func(*atomic.Bool) PipelineResult { return PipelineResult{Status: status.Sat} }, decided},
			{"staub", loser(0), decided},
			{"over", loser(1), decided},
		})
		if winner != 0 || results[0].Status != status.Sat {
			t.Fatalf("winner = %d, want the first verdict (leg 0, sat)", winner)
		}
		if !cancelled[0].Load() || !cancelled[1].Load() {
			t.Errorf("losing legs cancelled = %t/%t, want both", cancelled[0].Load(), cancelled[1].Load())
		}
	})

	t.Run("sequential STAUB unsat never wins", func(t *testing.T) {
		released := make(chan struct{})
		results, winner := race([]leg{
			{"unbounded", after(released, status.Sat), decided},
			{"staub", func(*atomic.Bool) PipelineResult {
				defer close(released)
				return PipelineResult{Status: status.Unsat}
			}, onlySat},
		})
		if winner != 0 || results[0].Status != status.Sat {
			t.Fatalf("winner = %d, unbounded leg = %v; want its sat", winner, results[0].Status)
		}
	})

	t.Run("a leg raising its own flag cancels no other leg", func(t *testing.T) {
		released := make(chan struct{})
		results, winner := race([]leg{
			{"unbounded", after(released, status.Unsat), decided},
			{"staub", func(interrupt *atomic.Bool) PipelineResult {
				defer close(released)
				// A pass watchdog cancels its own leg like this.
				interrupt.Store(true)
				return PipelineResult{Outcome: OutcomeError, Status: status.Unknown, Fault: pipeline.FaultWatchdog}
			}, onlySat},
		})
		if winner != 0 || results[0].Status != status.Unsat {
			t.Fatalf("winner = %d, unbounded leg = %v; want its unsat — the watchdog's flag reached another leg",
				winner, results[0].Status)
		}
	})

	t.Run("a panicking leg is contained", func(t *testing.T) {
		before := PortfolioMetricsSnapshot()["leg_panics"]
		released := make(chan struct{})
		results, winner := race([]leg{
			{"unbounded", after(released, status.Sat), decided},
			{"staub", func(*atomic.Bool) PipelineResult {
				close(released)
				panic("leg defect")
			}, onlySat},
		})
		if results[1].Status != status.Unknown || results[1].Fault != pipeline.FaultPanic {
			t.Errorf("panicked leg = %v/%q, want unknown/%q", results[1].Status, results[1].Fault, pipeline.FaultPanic)
		}
		if winner != 0 || results[0].Status != status.Sat {
			t.Errorf("winner = %d, want the surviving leg's sat", winner)
		}
		if got := PortfolioMetricsSnapshot()["leg_panics"]; got != before+1 {
			t.Errorf("staub_portfolio_leg_panics_total went %d → %d, want +1", before, got)
		}
	})
}
