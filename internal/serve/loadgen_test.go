package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// loadShape is one benchmark serving shape: its size, op mix, per-client
// key population and the offered rate of its mid ladder point.
type loadShape struct {
	name                  string
	tenants, clients, ops int
	putFrac, delFrac      float64
	keys                  int
	rate                  float64
}

var (
	putHeavyShape = loadShape{"serve-put", 4, 16, 64, 0.7, 0.1, 8, 1.6}
	getHeavyShape = loadShape{"serve-get", 4, 16, 64, 0.05, 0.02, 3, 2}
)

// build generates tenant i's schedule exactly as New does for a service
// of this shape at seed.
func (s loadShape) build(i int, seed int64) *loadGen {
	return buildLoad(i, s.clients, s.ops, s.keys, s.rate, s.putFrac, s.delFrac,
		valueBytes, clientWindow, rand.New(rand.NewSource(seed+int64(i)+1)))
}

// scheduleDigest hashes every op of every tenant's schedule in arrival
// order: seq, client, kind, key, value bytes and relative arrival.
func scheduleDigest(s loadShape, seed int64) string {
	h := sha256.New()
	var b []byte
	for i := 0; i < s.tenants; i++ {
		g := s.build(i, seed)
		for j := range g.ops {
			op := &g.ops[j]
			key, val := g.key(op), g.value(op)
			b = binary.LittleEndian.AppendUint64(b[:0], uint64(op.seq))
			b = binary.LittleEndian.AppendUint64(b, uint64(g.client(op)))
			b = binary.LittleEndian.AppendUint32(b, uint32(op.kind))
			b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
			b = append(b, key...)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(val)))
			b = append(b, val...)
			b = binary.LittleEndian.AppendUint64(b, op.arrival)
			h.Write(b)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLoadScheduleGolden pins the generated schedules of both benchmark
// serving shapes at two seeds, so a change to the generator's layout
// cannot move a single arrival, key or value byte, nor the order of its
// random draws.
func TestLoadScheduleGolden(t *testing.T) {
	for _, c := range []struct {
		shape loadShape
		seed  int64
		want  string
	}{
		{putHeavyShape, 1, "6adc677bc54c13e1f2299a36419ff71800d3960ed6fc10b12b945b06c1a838f2"},
		{putHeavyShape, 7, "de3df90baa6e01a9f48749bbb34e947d895f4c5fbf1fe2cacc73abfde6529d11"},
		{getHeavyShape, 1, "b30d6071643614e8ae90a3609e5de831fa986b6efd996cc50f46cdfb2757647c"},
		{getHeavyShape, 7, "6dbc53ae85bf9a09adf320a41ed8acbbc9d232ac27179854239c569cf5f2a64c"},
	} {
		if got := scheduleDigest(c.shape, c.seed); got != c.want {
			t.Errorf("%s seed %d: schedule digest %s, want %s", c.shape.name, c.seed, got, c.want)
		}
	}
}

// TestBuildLoadAllocationBound bounds the heap one put-heavy tenant's
// schedule costs: a 24-byte record per op, the key table, the value
// arena and the client model, with no per-op key string or value slice.
func TestBuildLoadAllocationBound(t *testing.T) {
	if raceBuild {
		t.Skip("-race instrumentation allocates")
	}
	const maxBytes, maxObjects = 80_000, 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := putHeavyShape.build(0, 1)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("one %dx%d put-heavy tenant: %d B, %d objects", putHeavyShape.clients, putHeavyShape.ops, bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Fatalf("building one %dx%d put-heavy tenant allocated %d B in %d objects, want at most %d B and %d objects",
			putHeavyShape.clients, putHeavyShape.ops, bytes, objects, maxBytes, maxObjects)
	}
}
