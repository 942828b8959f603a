package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

const (
	testMagic   = 0x54534554 // "TEST"
	testVersion = 3
)

func TestSealRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name         string
		tag, payload []byte
	}{
		{"empty", nil, nil},
		{"tag only", []byte("fingerprint"), nil},
		{"payload only", nil, []byte("walker stream")},
		{"both", []byte{2, 'k', 'e', 'y'}, bytes.Repeat([]byte{0xA5}, 1000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blob := Seal(testMagic, testVersion, tc.tag, tc.payload)
			if want := sealOverhead + len(tc.tag) + len(tc.payload); len(blob) != want {
				t.Fatalf("sealed %d bytes, want %d", len(blob), want)
			}
			tag, payload, err := Unseal(blob, testMagic, testVersion)
			if err != nil {
				t.Fatalf("unseal: %v", err)
			}
			if !bytes.Equal(tag, tc.tag) || !bytes.Equal(payload, tc.payload) {
				t.Fatalf("unsealed tag %q payload %d bytes, want %q and %d bytes", tag, len(payload), tc.tag, len(tc.payload))
			}
		})
	}
}

// TestSealWalk: SealWalk's frame is Seal's frame over the same walk,
// allocated once at its final length, and a walk that latches an error
// or encodes a different stream on its second run is refused.
func TestSealWalk(t *testing.T) {
	tag := []byte("fingerprint")
	walk := func(w *Walker) {
		u64, u32, u16, u8, ok := uint64(1<<40+7), uint32(9), uint16(300), uint8(5), true
		w.Uint64(&u64)
		w.Uint32(&u32)
		w.Uint16(&u16)
		w.Uint8(&u8)
		w.Bool(&ok)
		w.Uint64s([]uint64{1, 2, 3})
		w.Uint16s([]uint16{4, 5})
		w.Uint8s(bytes.Repeat([]byte{0xA5}, 1000))
		w.Int8s([]int8{-1, 1})
	}
	enc := NewEncoder()
	walk(enc)
	stream, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := SealWalk(testMagic, testVersion, tag, walk)
	if err != nil {
		t.Fatal(err)
	}
	if want := Seal(testMagic, testVersion, tag, stream); !bytes.Equal(blob, want) {
		t.Fatalf("SealWalk frame differs from Seal's:\n got %x\nwant %x", blob, want)
	}
	if cap(blob) != len(blob) {
		t.Fatalf("frame has capacity %d for %d bytes; want it allocated at its final length", cap(blob), len(blob))
	}

	bad := errors.New("bad field")
	if _, err := SealWalk(testMagic, testVersion, nil, func(w *Walker) { w.Check(bad) }); !errors.Is(err, bad) {
		t.Fatalf("latched walk: err = %v, want %v", err, bad)
	}
	runs := 0
	growing := func(w *Walker) {
		runs++
		w.Uint8s(make([]byte, runs))
	}
	if _, err := SealWalk(testMagic, testVersion, nil, growing); err == nil || !strings.Contains(err.Error(), "than it measured") {
		t.Fatalf("unsteady walk: err = %v, want the measured-stream error", err)
	}
}

// TestUnsealRejects breaks one field of a valid blob per case and
// requires the error to name the check that caught it.
func TestUnsealRejects(t *testing.T) {
	valid := Seal(testMagic, testVersion, []byte("tag"), []byte("payload bytes"))
	const tagLenAt, payloadLenAt = 8, 8 + 8 + 3
	patch := func(at int, v uint64) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(b[at:], v)
		return b
	}
	for _, tc := range []struct {
		name string
		blob []byte
		want string
	}{
		{"short", valid[:sealOverhead-1], "shorter than"},
		{"bad magic", Seal(testMagic+1, testVersion, []byte("tag"), []byte("payload bytes")), "bad magic"},
		{"bad version", Seal(testMagic, testVersion+1, []byte("tag"), []byte("payload bytes")), "format version"},
		{"tag overrun", patch(tagLenAt, 1<<40), "tag length"},
		{"payload overrun", patch(payloadLenAt, 14), "payload length"},
		{"payload truncated", valid[:len(valid)-1], "payload length"},
		{"trailing bytes", append(bytes.Clone(valid), 0), "trailing bytes"},
		{"payload bit flip", func() []byte { b := bytes.Clone(valid); b[payloadLenAt+8] ^= 1; return b }(), "checksum mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Unseal(tc.blob, testMagic, testVersion)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// FuzzUnseal: any input either unseals or errors, and whatever unseals
// re-seals to the same bytes, so the frame has one encoding per value.
// Its seeds are committed under testdata/fuzz/FuzzUnseal.
func FuzzUnseal(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		tag, payload, err := Unseal(blob, testMagic, testVersion)
		if err != nil {
			return
		}
		if again := Seal(testMagic, testVersion, tag, payload); !bytes.Equal(again, blob) {
			t.Fatalf("unsealed blob re-seals differently:\n got %x\nwant %x", again, blob)
		}
	})
}
