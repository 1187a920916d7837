package lockrank

import (
	"sync"
	"sync/atomic"
	"testing"
)

// withChecker runs fn with the checker forced on, restoring the prior
// state (tests must not leak enablement into each other).
func withChecker(t *testing.T, fn func()) {
	t.Helper()
	prev := enabled.Load()
	SetEnabled(true)
	defer SetEnabled(prev)
	fn()
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected lockrank panic", name)
		}
	}()
	fn()
}

func TestRankOrderEnforced(t *testing.T) {
	withChecker(t, func() {
		var lo, hi Mutex
		lo.Init(RankDomain, nil)
		hi.Init(RankGate, nil)

		// Increasing order is fine.
		lo.Lock()
		hi.Lock()
		hi.Unlock()
		lo.Unlock()

		// Decreasing order panics.
		hi.Lock()
		defer hi.Unlock()
		mustPanic(t, "inversion", func() { lo.Lock() })
	})
}

func TestSameRankForbidden(t *testing.T) {
	withChecker(t, func() {
		var a, b Mutex
		a.Init(RankFrames, nil)
		b.Init(RankFrames, nil)
		a.Lock()
		defer a.Unlock()
		mustPanic(t, "same-rank", func() { b.Lock() })
	})
}

func TestRWMutexRanked(t *testing.T) {
	withChecker(t, func() {
		var doms RWMutex
		doms.Init(RankDoms, nil)
		var bus Mutex
		bus.Init(RankBus, nil)

		doms.RLock()
		bus.Lock()
		bus.Unlock()
		doms.RUnlock()

		bus.Lock()
		defer bus.Unlock()
		mustPanic(t, "read-after-bus", func() { doms.RLock() })
	})
}

func TestAssertHeld(t *testing.T) {
	withChecker(t, func() {
		var gate Mutex
		gate.Init(RankGate, nil)
		mustPanic(t, "not-held", func() { AssertHeld(RankGate) })
		gate.Lock()
		AssertHeld(RankGate)
		gate.Unlock()
	})
}

func TestUnrankedSkipped(t *testing.T) {
	withChecker(t, func() {
		var hi Mutex
		hi.Init(RankLeaf, nil)
		var zero Mutex // zero value: unranked
		hi.Lock()
		zero.Lock() // would invert if it were ranked; must be ignored
		zero.Unlock()
		hi.Unlock()
	})
}

func TestWaitCounter(t *testing.T) {
	var waits atomic.Uint64
	var m Mutex
	m.Init(RankLeaf, &waits)

	// Uncontended: no waits.
	m.Lock()
	m.Unlock()
	if got := waits.Load(); got != 0 {
		t.Fatalf("uncontended lock counted %d waits", got)
	}

	// Contended: the second goroutine must count at least one wait.
	m.Lock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Lock()
		m.Unlock()
	}()
	for waits.Load() == 0 {
		// Spin until the waiter has registered; it can only proceed
		// once we unlock below.
		if t.Failed() {
			break
		}
	}
	m.Unlock()
	wg.Wait()
	if got := waits.Load(); got == 0 {
		t.Fatal("contended lock counted no waits")
	}
}

// TestConcurrentRankTracking exercises the per-goroutine stacks under
// the race detector: many goroutines taking disjoint rank chains.
func TestConcurrentRankTracking(t *testing.T) {
	withChecker(t, func() {
		var dom, gate, bus Mutex
		dom.Init(RankDomain, nil)
		gate.Init(RankGate, nil)
		bus.Init(RankBus, nil)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					dom.Lock()
					gate.Lock()
					bus.Lock()
					bus.Unlock()
					gate.Unlock()
					dom.Unlock()
				}
			}()
		}
		wg.Wait()
	})
}
