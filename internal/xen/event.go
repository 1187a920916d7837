package xen

import (
	"fmt"
	"strings"
	"sync/atomic"

	"fidelius/internal/cycles"
	"fidelius/internal/lockrank"
	"fidelius/internal/telemetry"
)

// EventBus is the event-channel mechanism: a guest (or the toolstack)
// kicks a port, and the bound handler runs in host context. The PV block
// protocol uses it to signal requests from front-end to back-end.
//
// The handler table is its own shard (lock rank: events). Notify looks
// the handler up under the read lock, releases it, and then invokes the
// handler through the injected invoke hook — under the gate lock when
// wired by the hypervisor — so the table shard is never held across
// handler execution and concurrent signal storms only contend at the
// genuine sharing point (the handler's shared ring state), never on the
// table itself.
type EventBus struct {
	ctlCharge func(uint64)
	hub       *telemetry.Hub

	mu       lockrank.RWMutex
	handlers map[evtKey]func() error

	// invoke runs a bound handler; the hypervisor wires it to take the
	// gate lock. The default (used by bare buses in tests) calls the
	// handler directly.
	invoke func(func() error) error
}

type evtKey struct {
	dom  DomID
	port uint32
}

// newEventBus returns an empty bus charging cycles through fn.
func newEventBus(charge func(uint64), hub *telemetry.Hub) *EventBus {
	return &EventBus{
		ctlCharge: charge,
		hub:       hub,
		handlers:  make(map[evtKey]func() error),
		invoke:    func(h func() error) error { return h() },
	}
}

// SetLockInfo ranks the handler-table lock and wires its contention
// counter.
func (b *EventBus) SetLockInfo(rank lockrank.Rank, waits *atomic.Uint64) {
	b.mu.Init(rank, waits)
}

// Bind installs the handler for (dom, port), replacing any previous one.
func (b *EventBus) Bind(dom DomID, port uint32, handler func() error) {
	b.mu.Lock()
	b.handlers[evtKey{dom, port}] = handler
	b.mu.Unlock()
}

// UnbindDomain removes every handler bound for dom: a destroyed domain's
// ports must not outlive it.
func (b *EventBus) UnbindDomain(dom DomID) {
	b.mu.Lock()
	for k := range b.handlers {
		if k.dom == dom {
			delete(b.handlers, k)
		}
	}
	b.mu.Unlock()
}

// Notify kicks a port. The bound handler runs synchronously in host
// context before the notifying hypercall returns.
func (b *EventBus) Notify(dom DomID, port uint32) error {
	b.mu.RLock()
	h, ok := b.handlers[evtKey{dom, port}]
	b.mu.RUnlock()
	if !ok {
		return fmt.Errorf("xen: event channel %d/%d not bound", dom, port)
	}
	b.ctlCharge(cycles.EventChannelSignal)
	if t := b.hub; t != nil {
		t.M.EvtSignals.Inc()
		if t.Tracing() {
			t.Emit(telemetry.KindEvtSignal, uint32(dom), 0,
				cycles.EventChannelSignal, uint64(port), 0)
		}
	}
	return b.invoke(h)
}

// XenStore is the toolstack's small key-value store, used to advertise
// ring GPAs and grant references between front and back ends. It is an
// independently locked shard (lock rank: store).
type XenStore struct {
	mu lockrank.RWMutex
	kv map[string]string
}

// newXenStore returns an empty store.
func newXenStore() *XenStore { return &XenStore{kv: make(map[string]string)} }

// SetLockInfo ranks the store lock and wires its contention counter.
func (s *XenStore) SetLockInfo(rank lockrank.Rank, waits *atomic.Uint64) {
	s.mu.Init(rank, waits)
}

// Set stores a value.
func (s *XenStore) Set(key, val string) {
	s.mu.Lock()
	s.kv[key] = val
	s.mu.Unlock()
}

// Delete removes a node and every node below it, as xenstore-rm does.
func (s *XenStore) Delete(path string) {
	s.mu.Lock()
	for k := range s.kv {
		if k == path || strings.HasPrefix(k, path+"/") {
			delete(s.kv, k)
		}
	}
	s.mu.Unlock()
}
