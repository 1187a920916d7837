package serve

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest feeds the guest's request decoder random frames: the
// bytes of a request frame sit on a hypervisor-writable ring page, so no
// frame may panic it. A frame it accepts must re-encode to the same
// header, key and value bytes, and a frame built by encodeRequest from
// random fields must decode back to them.
func FuzzDecodeRequest(f *testing.F) {
	frame := make([]byte, SectorSize)
	for _, r := range []struct {
		id       uint64
		op       uint32
		key, val string
	}{
		{0, OpInstallKey, "", string(bytes.Repeat([]byte{7}, 32))},
		{1, OpPut, "t0/c1/k2", string(bytes.Repeat([]byte{'v'}, 48))},
		{2, OpGet, "t3/c15/k7", ""},
		{3, OpDelete, string(bytes.Repeat([]byte{'k'}, MaxKeyLen)), ""},
		{1 << 63, OpPut, "k", string(bytes.Repeat([]byte{'x'}, MaxValLen))},
	} {
		if err := encodeRequest(frame, r.id, r.op, r.key, []byte(r.val)); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), frame...), r.id, r.op, r.key, []byte(r.val))
	}
	f.Add([]byte{0x10, 0xde, 0xf1, 0x5e, 0xff, 0xff, 0xff, 0xff}, uint64(0), uint32(9), "", []byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte, id uint64, op uint32, key string, val []byte) {
		// The guest reads every frame into a whole sector.
		frame := make([]byte, SectorSize)
		copy(frame, raw)
		gotID, gotOp, gotKey, gotVal, err := decodeRequest(frame)
		if err == nil {
			again := make([]byte, SectorSize)
			if err := encodeRequest(again, gotID, gotOp, gotKey, gotVal); err != nil {
				t.Fatalf("decoded frame does not re-encode: %v", err)
			}
			n := reqHeader + len(gotKey) + len(gotVal)
			if !bytes.Equal(again[:n], frame[:n]) {
				t.Fatalf("re-encoded frame %x, decoded from %x", again[:n], frame[:n])
			}
		}
		if len(key) > MaxKeyLen || len(val) > MaxValLen {
			if encodeRequest(frame, id, op, key, val) == nil {
				t.Fatalf("encodeRequest accepted a %d-byte key and %d-byte value", len(key), len(val))
			}
			return
		}
		if err := encodeRequest(frame, id, op, key, val); err != nil {
			t.Fatal(err)
		}
		gotID, gotOp, gotKey, gotVal, err = decodeRequest(frame)
		if err != nil || gotID != id || gotOp != op || gotKey != key || !bytes.Equal(gotVal, val) {
			t.Fatalf("round trip of (%d, %d, %q, %x) gave (%d, %d, %q, %x, %v)",
				id, op, key, val, gotID, gotOp, gotKey, gotVal, err)
		}
	})
}
