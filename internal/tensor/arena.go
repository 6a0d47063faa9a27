package tensor

// Arena is a bump allocator for the evaluation hot path. It hands out
// tensors and float slices carved from large reusable chunks; Reset rewinds
// the arena so the next execution pass re-carves the exact same sequence of
// buffers from the same memory. Because the allocation sequence of a compiled
// evaluation plan is deterministic for a fixed batch shape, an arena reaches
// a fixed point after one warm-up pass and every subsequent pass performs
// zero heap allocations: chunks, tensor headers and shape slices are all
// reused in place.
//
// An Arena is not safe for concurrent use; the evaluation engine keeps one
// arena per Monte-Carlo worker. Buffers returned by Alloc/AllocFloats are
// valid only until the next Reset and are NOT zeroed — callers must fully
// define every element they read back.
type Arena struct {
	chunks [][]float64
	ci     int // current chunk index
	off    int // carve offset within chunks[ci]

	headers []*Tensor
	hi      int // next header to hand out

	chunkSize int
}

// defaultChunk is the minimum chunk size in float64s (512 KiB).
const defaultChunk = 1 << 16

// NewArena returns an empty arena. Chunks are allocated on demand and kept
// across Reset.
func NewArena() *Arena { return &Arena{chunkSize: defaultChunk} }

// Reset rewinds the arena: every buffer previously handed out is invalidated
// and the backing memory becomes available for re-carving. No memory is
// released.
func (a *Arena) Reset() {
	a.ci, a.off, a.hi = 0, 0, 0
}

// AllocFloats carves a float64 slice of length n. The slice is not zeroed.
func (a *Arena) AllocFloats(n int) []float64 {
	if n < 0 {
		panic("tensor: negative arena allocation")
	}
	for a.ci < len(a.chunks) && a.off+n > len(a.chunks[a.ci]) {
		a.ci++
		a.off = 0
	}
	if a.ci == len(a.chunks) {
		size := a.chunkSize
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, make([]float64, size))
	}
	s := a.chunks[a.ci][a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// Alloc carves a tensor with the given shape. The tensor header, its shape
// slice and its data all come from arena-owned memory reused across Reset;
// the data is not zeroed.
func (a *Arena) Alloc(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dim in arena allocation")
		}
		n *= d
	}
	var t *Tensor
	if a.hi < len(a.headers) {
		t = a.headers[a.hi]
	} else {
		t = &Tensor{}
		a.headers = append(a.headers, t)
	}
	a.hi++
	t.Shape = append(t.Shape[:0], shape...)
	t.Data = a.AllocFloats(n)
	return t
}

// Footprint returns the total float64 capacity currently held by the arena,
// for diagnostics and memory accounting.
func (a *Arena) Footprint() int {
	total := 0
	for _, c := range a.chunks {
		total += len(c)
	}
	return total
}
