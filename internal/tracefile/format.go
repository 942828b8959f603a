// Package tracefile reads and writes ChampSim-compatible instruction
// traces, the capture format the PPF paper's evaluation ecosystem uses
// (Bhatia et al., ISCA 2019, evaluated in ChampSim on SPEC/CloudSuite
// SimPoint traces; Pythia and the two-level off-chip predictor ship in
// the same format). A trace is a headerless stream of fixed-width
// 64-byte little-endian records, one per retired instruction:
//
//	offset  size  field
//	     0     8  ip                    (instruction pointer)
//	     8     1  is_branch             (0 or 1)
//	     9     1  branch_taken          (0 or 1)
//	    10     2  destination_registers (register ids, 0 = empty slot)
//	    12     4  source_registers      (register ids, 0 = empty slot)
//	    16    16  destination_memory    (2 × uint64 store addresses, 0 = empty)
//	    32    32  source_memory         (4 × uint64 load addresses, 0 = empty)
//
// Traces are usually compressed on disk; Decompress layers the right
// stdlib decoder over a plain io.Reader by sniffing magic bytes, so the
// record reader itself stays agnostic of the container. The Adapter
// converts decoded records onto the simulator's internal/trace stream
// interface (reconstructing load→load dependencies from register
// dataflow), and the Writer round-trips the repo's own synthetic
// workloads into the external format, making captured and synthetic
// traces interchangeable everywhere a trace.Reader is accepted.
package tracefile

import (
	"encoding/binary"
	"fmt"
)

// Geometry of one trace record (ChampSim's input_instr layout).
const (
	// NumDests is the number of destination-register and store-address
	// slots per record.
	NumDests = 2
	// NumSources is the number of source-register and load-address
	// slots per record.
	NumSources = 4
	// RecordSize is the encoded size of one record in bytes.
	RecordSize = 64
)

// Record is one decoded trace record. A zero value in a register or
// memory slot means the slot is unused.
type Record struct {
	// IP is the instruction pointer.
	IP uint64
	// IsBranch is 1 when the instruction is a branch.
	IsBranch byte
	// BranchTaken is 1 when a branch was taken.
	BranchTaken byte
	// DestRegs are the output register ids.
	DestRegs [NumDests]byte
	// SrcRegs are the input register ids.
	SrcRegs [NumSources]byte
	// DestMem are the store addresses.
	DestMem [NumDests]uint64
	// SrcMem are the load addresses.
	SrcMem [NumSources]uint64
}

// Encode serialises the record into b, which must hold RecordSize bytes.
func (r *Record) Encode(b []byte) {
	_ = b[RecordSize-1]
	binary.LittleEndian.PutUint64(b[0:8], r.IP)
	b[8] = r.IsBranch
	b[9] = r.BranchTaken
	b[10], b[11] = r.DestRegs[0], r.DestRegs[1]
	copy(b[12:16], r.SrcRegs[:])
	for i, a := range r.DestMem {
		binary.LittleEndian.PutUint64(b[16+8*i:], a)
	}
	for i, a := range r.SrcMem {
		binary.LittleEndian.PutUint64(b[32+8*i:], a)
	}
}

// Decode parses the record from b, which must hold RecordSize bytes.
func (r *Record) Decode(b []byte) {
	_ = b[RecordSize-1]
	r.IP = binary.LittleEndian.Uint64(b[0:8])
	r.IsBranch = b[8]
	r.BranchTaken = b[9]
	r.DestRegs[0], r.DestRegs[1] = b[10], b[11]
	copy(r.SrcRegs[:], b[12:16])
	for i := range r.DestMem {
		r.DestMem[i] = binary.LittleEndian.Uint64(b[16+8*i:])
	}
	for i := range r.SrcMem {
		r.SrcMem[i] = binary.LittleEndian.Uint64(b[32+8*i:])
	}
}

// FormatError reports a malformed trace with enough context for a
// one-line diagnostic: the byte offset and record index where decoding
// failed, and why.
type FormatError struct {
	// Offset is the byte offset (into the decompressed stream) of the
	// record that failed to decode.
	Offset int64
	// Record is the zero-based index of that record.
	Record uint64
	// Reason describes the failure.
	Reason string
}

// Error renders the one-line diagnostic.
func (e *FormatError) Error() string {
	return fmt.Sprintf("offset %d (record %d): %s", e.Offset, e.Record, e.Reason)
}
