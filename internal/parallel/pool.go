// Package parallel provides the bounded worker pool behind bulk page
// crypto: the SEV firmware's only page-transfer commands (LAUNCH_UPDATE,
// SEND_UPDATE and RECEIVE_UPDATE, each taking a page batch) fan their
// page-granular encrypt/decrypt/measure work across it, whether the
// batch is a whole image, a 32-page pre-copy chunk or the single page of
// one received migration frame.
//
// The pool is deliberately dumb: ForEach runs fn(0..n-1) across at most
// Width goroutines and reports the lowest-index error. Callers own
// determinism — they write results into index-addressed slots during the
// parallel phase and fold order-sensitive state (measurement chains,
// sequence numbers, wire frames) serially afterwards, so one n-item
// batch produces the same output as n one-item batches regardless of
// scheduling.
package parallel

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"fidelius/internal/telemetry"
)

// Pool bounds the concurrency of bulk operations. The zero value and the
// nil pool are both valid and run everything inline on the caller's
// goroutine.
type Pool struct {
	width int

	jobs    *telemetry.Counter
	workers *telemetry.Gauge
	hub     *telemetry.Hub
}

// New returns a pool of the given width. A width <= 0 picks GOMAXPROCS.
func New(width int) *Pool {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	return &Pool{width: width}
}

// Width reports the maximum worker count. A nil or zero pool has width 1.
func (p *Pool) Width() int {
	if p == nil || p.width < 1 {
		return 1
	}
	return p.width
}

// SetWidth changes the worker bound (<= 0 resets to GOMAXPROCS). Not safe
// concurrently with ForEach; intended for setup and benchmarks.
func (p *Pool) SetWidth(width int) {
	if p == nil {
		return
	}
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	p.width = width
}

// Register publishes pool.jobs (items processed) and pool.workers (width
// of the last fan-out) on the registry.
func (p *Pool) Register(reg *telemetry.Registry) {
	if p == nil || reg == nil {
		return
	}
	p.jobs = reg.Counter("pool.jobs")
	p.workers = reg.Gauge("pool.workers")
}

// AttachHub wires the pool to a telemetry hub so every ForEach batch
// records a causal span (parented under whatever scope dispatched the
// bulk work — a VM launch, a migration round). Nil hub detaches.
func (p *Pool) AttachHub(h *telemetry.Hub) {
	if p == nil {
		return
	}
	p.hub = h
}

// ForEach runs fn(i) for every i in [0, n), using up to Width goroutines,
// and returns the error of the lowest failing index (matching what a
// serial loop that stops at the first failure would report). All n calls
// are attempted even after a failure — workers keep draining so callers
// can rely on every index having been visited exactly once.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	width := p.Width()
	if width > n {
		width = n
	}
	if p != nil {
		p.jobs.Add(uint64(n))
		p.workers.Set(int64(width))
		sp := p.hub.OpenScope("pool-batch", 0, 0).
			Attr("jobs", strconv.Itoa(n)).
			Attr("width", strconv.Itoa(width))
		defer sp.Close()
	}
	if width == 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}

	var (
		next   atomic.Int64
		mu     sync.Mutex
		errIdx = -1
		errVal error
		wg     sync.WaitGroup
	)
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, errVal = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errVal
}
