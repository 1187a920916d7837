package core

import (
	"runtime"
	"sync"
	"testing"

	"fidelius/internal/cycles"
)

// TestConcurrentFoldDuringGate checks that gate traversals never lose
// cycles charged elsewhere on the machine clock. One goroutine walks the
// type 3 gate while another plays finished ScheduleParallel cores: it
// charges a per-vCPU view and folds it into the base counter through
// Release, without the gate lock. Every fold must survive, so the clock
// ends exactly at the gate constants plus the folded cycles.
func TestConcurrentFoldDuringGate(t *testing.T) {
	const (
		n         = 20000
		perCore   = 5000
		gateTotal = n * cycles.Gate3
	)
	_, f := newPlatform(t)
	clock := f.M.Ctl.Clock
	start := clock.Total()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			v := f.M.Ctl.View()
			v.Cycles.Charge(perCore)
			v.Release()
			// Yield after every fold, so that on a single P each
			// preemption of the gate goroutine gives one fold the
			// chance to land inside a gate.
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			f.BenchGate3(1)
		}
	}()
	wg.Wait()

	want := start + gateTotal + n*perCore
	if got := clock.Total(); got != want {
		t.Fatalf("clock total %d, want %d: %d cycles lost", got, want, int64(want)-int64(got))
	}
}
