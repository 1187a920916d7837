package serve

import (
	"encoding/binary"
	"fmt"

	"fidelius/internal/hw"
)

// The serve ring is the request/response channel between the (untrusted,
// host-side) client front door and the tenant guest: shared unencrypted
// pages directly after the PV block data pages, split evenly into a
// request direction followed by a response direction. Each direction is
// a run of contiguous guest frames whose sector 0 is the control sector
// and whose sectors 1..frames are op frames:
//
//	request pages:  sector 0 = control, sectors 1..frames = request frames
//	response pages: sector 0 = control, sectors 1..frames = response frames
//
// The frame count is fixed at ringFrames and published to the guest via
// StartInfo.ServeFrames; the guest refuses any other value. Fifteen
// frames let the front door pipeline deep batches per doorbell: a
// put-heavy batch amortizes one VMEXIT round trip and one kv group
// commit over twice the ops a single-page (7-frame) ring could carry.
//
// Framing is sector-granular like the block protocol: one op per 512-byte
// sector, so a frame never straddles a cache line boundary the host and
// guest could tear. The ring is batch-synchronous — the host fills
// request frames only inside the doorbell event handler (while the guest
// is parked in the hypercall VMEXIT) and drains responses only inside the
// completion handler, so no ring byte is ever accessed concurrently.
//
// Request frame:  [4B magic][8B id][4B op][4B keyLen][4B valLen][key][val]
// Response frame: [4B magic][8B id][4B status][4B valLen][val]
// Request ctl:    [4B magic][4B count][4B flags]    (flags bit0 = stop)
// Response ctl:   [4B magic][4B count]
//
// Like the block ring, the shared pages carry whatever the endpoints
// choose to place there: under an admitted session the guest stores
// values encrypted under the session data key, so the hypervisor-visible
// ring bytes and the disk both stay ciphertext.

// SectorSize is the ring framing granularity.
const SectorSize = 512

// sectorsPerPage is the ring slots (control + frames) one page carries.
const sectorsPerPage = hw.PageSize / SectorSize

// ringFrames is the per-direction frame capacity: two pages per
// direction (1 control sector + 15 frames).
const ringFrames = 15

// ringPagesPerDir is the pages one ring direction occupies: the control
// sector plus one sector per frame, rounded up to whole pages.
const ringPagesPerDir = (ringFrames + 1 + sectorsPerPage - 1) / sectorsPerPage

// framePA resolves ring slot `slot` (0 = control sector, 1..frames = op
// frames) within one direction's shared pages. The pages are contiguous
// in guest-physical space but not in host-physical space, hence the
// per-page table.
func framePA(pas []hw.PhysAddr, slot uint32) hw.PhysAddr {
	return pas[slot/sectorsPerPage] + hw.PhysAddr(slot%sectorsPerPage)*SectorSize
}

const ringMagic = 0x5EF1DE10

// Request ops.
const (
	// OpGet reads a key.
	OpGet = 0
	// OpPut writes a key.
	OpPut = 1
	// OpDelete removes a key.
	OpDelete = 2
	// OpInstallKey delivers the session data key (value = 32 key bytes).
	// Only ever enqueued after the client verified the VM's attestation.
	OpInstallKey = 3
)

// Response status codes.
const (
	// StatusOK reports success; gets carry the value.
	StatusOK = 0
	// StatusNotFound reports a missing key (a valid answer, not an error).
	StatusNotFound = 1
	// StatusError reports an execution failure inside the guest.
	StatusError = 2
)

// Request control flags.
const (
	// FlagStop tells the guest the session is over: drain and return.
	FlagStop = 1
)

const (
	reqHeader  = 24 // magic + id + op + keyLen + valLen
	respHeader = 20 // magic + id + status + valLen
)

// MaxKeyLen and MaxValLen bound one op to a single frame sector.
const (
	MaxKeyLen = 128
	MaxValLen = SectorSize - reqHeader - MaxKeyLen
)

// OpName renders an op code for spans and tables.
func OpName(op uint32) string {
	switch op {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpInstallKey:
		return "install-key"
	}
	return fmt.Sprintf("op(%d)", op)
}

// encodeRequest packs one request frame into a sector buffer.
func encodeRequest(buf []byte, id uint64, op uint32, key string, val []byte) error {
	if len(key) > MaxKeyLen || len(val) > MaxValLen {
		return fmt.Errorf("serve: request %d/%d bytes exceeds frame", len(key), len(val))
	}
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:], ringMagic)
	binary.LittleEndian.PutUint64(buf[4:], id)
	binary.LittleEndian.PutUint32(buf[12:], op)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(val)))
	copy(buf[reqHeader:], key)
	copy(buf[reqHeader+len(key):], val)
	return nil
}

// decodeRequest unpacks one request frame. val aliases buf.
func decodeRequest(buf []byte) (id uint64, op uint32, key string, val []byte, err error) {
	if binary.LittleEndian.Uint32(buf[0:]) != ringMagic {
		return 0, 0, "", nil, fmt.Errorf("serve: bad request frame magic")
	}
	id = binary.LittleEndian.Uint64(buf[4:])
	op = binary.LittleEndian.Uint32(buf[12:])
	kl := int(binary.LittleEndian.Uint32(buf[16:]))
	vl := int(binary.LittleEndian.Uint32(buf[20:]))
	if kl < 0 || kl > MaxKeyLen || vl < 0 || vl > MaxValLen {
		return 0, 0, "", nil, fmt.Errorf("serve: silly request lengths %d/%d", kl, vl)
	}
	key = string(buf[reqHeader : reqHeader+kl])
	return id, op, key, buf[reqHeader+kl : reqHeader+kl+vl], nil
}

// encodeResponse packs one response frame into a sector buffer.
func encodeResponse(buf []byte, id uint64, status uint32, val []byte) error {
	if len(val) > SectorSize-respHeader {
		return fmt.Errorf("serve: response %d bytes exceeds frame", len(val))
	}
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:], ringMagic)
	binary.LittleEndian.PutUint64(buf[4:], id)
	binary.LittleEndian.PutUint32(buf[12:], status)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(val)))
	copy(buf[respHeader:], val)
	return nil
}

// decodeResponse unpacks one response frame. val aliases buf.
func decodeResponse(buf []byte) (id uint64, status uint32, val []byte, err error) {
	if binary.LittleEndian.Uint32(buf[0:]) != ringMagic {
		return 0, 0, nil, fmt.Errorf("serve: bad response frame magic")
	}
	id = binary.LittleEndian.Uint64(buf[4:])
	status = binary.LittleEndian.Uint32(buf[12:])
	vl := int(binary.LittleEndian.Uint32(buf[16:]))
	if vl < 0 || vl > SectorSize-respHeader {
		return 0, 0, nil, fmt.Errorf("serve: silly response length %d", vl)
	}
	return id, status, buf[respHeader : respHeader+vl], nil
}

// encodeReqCtl packs the request control sector.
func encodeReqCtl(buf []byte, count, flags uint32) {
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:], ringMagic)
	binary.LittleEndian.PutUint32(buf[4:], count)
	binary.LittleEndian.PutUint32(buf[8:], flags)
}

// decodeReqCtl unpacks the request control sector.
func decodeReqCtl(buf []byte) (count, flags uint32, err error) {
	if binary.LittleEndian.Uint32(buf[0:]) != ringMagic {
		return 0, 0, fmt.Errorf("serve: bad request control magic")
	}
	return binary.LittleEndian.Uint32(buf[4:]), binary.LittleEndian.Uint32(buf[8:]), nil
}

// encodeRespCtl packs the response control sector.
func encodeRespCtl(buf []byte, count uint32) {
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:], ringMagic)
	binary.LittleEndian.PutUint32(buf[4:], count)
}

// decodeRespCtl unpacks the response control sector.
func decodeRespCtl(buf []byte) (count uint32, err error) {
	if binary.LittleEndian.Uint32(buf[0:]) != ringMagic {
		return 0, fmt.Errorf("serve: bad response control magic")
	}
	return binary.LittleEndian.Uint32(buf[4:]), nil
}
