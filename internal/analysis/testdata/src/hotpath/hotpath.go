// Package hotpath seeds allocation violations for the hotpath
// analyzer. Fixture trees are not buildable modules, so the compiler's
// escape output is simulated with //ppflint:escapes comments placed at
// the would-be diagnostic positions; attribution into annotated bodies,
// positioning, and allow handling are exactly the production paths.
package hotpath

// sum is the clean shape: annotated and escape-free.
//
//ppflint:hotpath
func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// boxed models the real bug class: an inlined error constructor boxes
// its operand into fmt.Errorf's ...any slice, an allocation on what is
// supposed to be a zero-alloc decode path.
//
//ppflint:hotpath
func boxed(b byte) error {
	if b > 9 {
		return errBad(b) //ppflint:escapes b escapes to heap // want "hot path boxed allocates: b escapes to heap"
	}
	return nil
}

func errBad(b byte) error { return nil }

// addressed pins the moved-to-heap message form.
//
//ppflint:hotpath
func addressed() *int {
	x := 0 //ppflint:escapes moved to heap: x // want "hot path addressed allocates: moved to heap: x"
	return &x
}

// closureInside: a closure does not leave the hot path by being a
// closure — escapes inside it still land in the annotated span.
//
//ppflint:hotpath
func closureInside(xs []int) int {
	f := func() int {
		return len(xs) //ppflint:escapes func literal escapes to heap // want "hot path closureInside allocates: func literal escapes to heap"
	}
	return f()
}

// cold is not annotated: the same escape is none of our business.
func cold(n int) []int {
	return make([]int, n) //ppflint:escapes make([]int, n) escapes to heap
}

// The scratch-matrix shapes below exercise receiver attribution: a
// fixed array resident in the receiver and reused across calls is
// clean, while a per-call matrix or a row pointer that leaks the
// receiver is an allocation inside the annotated span.

type indexVec [9]uint16

type filter struct {
	mat [16]indexVec
}

// decideBatchResident is the clean shape: rows are written into the
// receiver's fixed-size scratch and never escape the call.
//
//ppflint:hotpath
func (f *filter) decideBatchResident(ins []uint64) int {
	n := 0
	for i := range ins {
		row := &f.mat[i&15]
		for j := range row {
			row[j] = uint16(ins[i] >> uint(j))
		}
		n += int(row[0])
	}
	return n
}

// decideBatchEscapes allocates a per-call matrix inside the annotated
// body: one heap allocation on every call.
//
//ppflint:hotpath
func decideBatchEscapes(ins []uint64) int {
	mat := make([]indexVec, len(ins)) //ppflint:escapes make([]indexVec, len(ins)) escapes to heap // want "hot path decideBatchEscapes allocates: make.*indexVec.* escapes to heap"
	for i := range ins {
		mat[i][0] = uint16(ins[i])
	}
	return int(mat[0][0])
}

// rowLeaks models the subtler escape: a row pointer returned out of the
// call forces the whole receiver scratch to the heap.
//
//ppflint:hotpath
func (f *filter) rowLeaks(in uint64) *indexVec {
	row := &f.mat[0] //ppflint:escapes f escapes to heap // want "hot path rowLeaks allocates: f escapes to heap"
	row[0] = uint16(in)
	return row
}

// amortized demonstrates the escape hatch for a measured, deliberate
// allocation (growth amortized across calls).
//
//ppflint:hotpath
func amortized(buf []byte, n int) []byte {
	//ppflint:allow hotpath growth is amortized: one alloc per table doubling, measured by the bench harness
	return append(buf, make([]byte, n)...) //ppflint:escapes make([]byte, n) escapes to heap
}
