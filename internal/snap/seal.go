package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// sealOverhead is a sealed blob's size around its tag and payload: the
// magic, the version, both lengths and the checksum.
const sealOverhead = 4 + 4 + 8 + 8 + 4

// Seal frames payload for storage or transfer:
//
//	magic[u32] version[u32] tagLen[u64] tag payloadLen[u64] payload crc32(payload)[u32]
//
// Integers are little-endian and the checksum is CRC-32 (IEEE). The tag
// names what the payload belongs to, so a reader can refuse a payload
// built for something else: ppfd's session snapshots carry their filter
// configuration's fingerprint, store entries their kind and key, and
// machine snapshots none. Every sealed format in the module is this
// frame; they differ only in magic, version and tag.
func Seal(magic, version uint32, tag, payload []byte) []byte {
	blob, _ := SealWalk(magic, version, tag, func(w *Walker) { w.Uint8s(payload) }) // a byte copy latches nothing
	return blob
}

// SealWalk is Seal for the stream walk encodes. It walks twice, first
// only counting the stream's bytes, so the frame is allocated once at
// its final size and the stream is encoded straight into it: a
// megabyte machine snapshot costs one allocation, where an encoder's
// append growth would allocate several times the stream and Seal would
// then copy it. walk must encode the same stream both times.
func SealWalk(magic, version uint32, tag []byte, walk func(*Walker)) ([]byte, error) {
	m := &Walker{encoding: true, measuring: true}
	walk(m)
	if m.err != nil {
		return nil, m.err
	}
	tn, pn := uint64(len(tag)), uint64(m.measured)
	w := &Walker{encoding: true, buf: make([]byte, 0, sealOverhead+len(tag)+m.measured)}
	w.Uint32(&magic)
	w.Uint32(&version)
	w.Uint64(&tn)
	w.Uint8s(tag)
	w.Uint64(&pn)
	start := len(w.buf)
	walk(w)
	if w.err != nil || len(w.buf)-start != m.measured {
		return nil, errors.New("snap: walk encoded a different stream than it measured")
	}
	return binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf[start:])), nil
}

// Unseal checks a Seal blob's magic, version, both lengths, that no
// bytes trail the checksum, and the checksum, and returns the tag and
// payload it carries. Both alias blob. Comparing the tag is the
// caller's job.
func Unseal(blob []byte, magic, version uint32) (tag, payload []byte, err error) {
	if len(blob) < sealOverhead {
		return nil, nil, fmt.Errorf("snap: %d-byte blob is shorter than the %d-byte frame", len(blob), sealOverhead)
	}
	le := binary.LittleEndian
	if m := le.Uint32(blob); m != magic {
		return nil, nil, fmt.Errorf("snap: bad magic 0x%08x", m)
	}
	if v := le.Uint32(blob[4:]); v != version {
		return nil, nil, fmt.Errorf("snap: format version %d (want %d)", v, version)
	}
	room := uint64(len(blob) - sealOverhead) // the bytes left for tag and payload
	tn := le.Uint64(blob[8:])
	if tn > room {
		return nil, nil, fmt.Errorf("snap: tag length %d overruns the blob", tn)
	}
	tag, rest := blob[16:16+tn:16+tn], blob[16+tn:]
	pn := le.Uint64(rest)
	if pn > room-tn {
		return nil, nil, fmt.Errorf("snap: payload length %d overruns the blob", pn)
	}
	if pn < room-tn {
		return nil, nil, fmt.Errorf("snap: %d trailing bytes", room-tn-pn)
	}
	payload = rest[8 : 8+pn : 8+pn]
	if want, got := le.Uint32(rest[8+pn:]), crc32.ChecksumIEEE(payload); got != want {
		return nil, nil, fmt.Errorf("snap: checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	return tag, payload, nil
}
