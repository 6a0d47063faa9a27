package kernel

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"swim/internal/registry"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// fill populates t with Gaussian values, planting exact zeros (to exercise
// the zero-skip) and negative zeros (to exercise signed-zero accumulation).
func fill(t *tensor.Tensor, r *rng.Source) {
	for i := range t.Data {
		switch r.Intn(8) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = math.Copysign(0, -1)
		default:
			t.Data[i] = r.Gauss(0, 1)
		}
	}
}

// bitsEqual reports whether a and b hold bit-identical data.
func bitsEqual(a, b *tensor.Tensor) (int, bool) {
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// schedules are the two ends of blocked's scheduling space, which must agree
// bit for bit: "pool" sends every multi-unit job through the shared pool,
// however small, and "inline" holds the pool busy so every job runs on the
// calling goroutine.
var schedules = []string{"pool", "inline"}

// withSchedule runs f under the named schedule.
func withSchedule(sched string, f func()) {
	switch sched {
	case "pool":
		old := minParallelFlops
		minParallelFlops = 0
		defer func() { minParallelFlops = old }()
	case "inline":
		sharedPool.mu.Lock()
		defer sharedPool.mu.Unlock()
	}
	f()
}

func TestMatMulVariantsBitIdentical(t *testing.T) {
	r := rng.New(7)
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {1, 2, 3}, {2, 13, 4}, {3, 5, 7}, {5, 9, 8},
		{4, 16, 9}, {7, 31, 17}, {16, 24, 33}, {64, 36, 40},
	}
	for _, sz := range sizes {
		for _, acc := range []bool{false, true} {
			a := tensor.New(sz.m, sz.k)
			b := tensor.New(sz.k, sz.n)
			fill(a, r)
			fill(b, r)
			seed := tensor.New(sz.m, sz.n)
			fill(seed, r)
			want := seed.Clone()
			tensor.MatMulInto(want, a, b, acc)
			for _, sched := range schedules {
				got := seed.Clone()
				withSchedule(sched, func() { blocked{}.MatMul(got, a, b, acc) })
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("blocked/%s MatMul %dx%dx%d acc=%v: bit mismatch at %d: %g vs %g",
						sched, sz.m, sz.k, sz.n, acc, i, want.Data[i], got.Data[i])
				}
			}
		}
	}
}

func TestMatMulTransAVariantsBitIdentical(t *testing.T) {
	r := rng.New(11)
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 2, 5}, {5, 13, 9}, {8, 7, 16}, {17, 31, 23},
	}
	for _, sz := range sizes {
		for _, acc := range []bool{false, true} {
			a := tensor.New(sz.k, sz.m)
			b := tensor.New(sz.k, sz.n)
			fill(a, r)
			fill(b, r)
			seed := tensor.New(sz.m, sz.n)
			fill(seed, r)
			want := seed.Clone()
			tensor.MatMulTransAInto(want, a, b, acc)
			for _, sched := range schedules {
				got := seed.Clone()
				withSchedule(sched, func() { blocked{}.MatMulTransA(got, a, b, acc) })
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("blocked/%s MatMulTransA %dx%dx%d acc=%v: bit mismatch at %d",
						sched, sz.m, sz.k, sz.n, acc, i)
				}
			}
		}
	}
}

func TestMatMulTransBVariantsBitIdentical(t *testing.T) {
	r := rng.New(13)
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 2}, {4, 13, 5}, {7, 8, 11}, {32, 25, 10},
	}
	for _, sz := range sizes {
		for _, acc := range []bool{false, true} {
			a := tensor.New(sz.m, sz.k)
			b := tensor.New(sz.n, sz.k)
			fill(a, r)
			fill(b, r)
			seed := tensor.New(sz.m, sz.n)
			fill(seed, r)
			want := seed.Clone()
			tensor.MatMulTransBInto(want, a, b, acc)
			for _, sched := range schedules {
				got := seed.Clone()
				withSchedule(sched, func() { blocked{}.MatMulTransB(got, a, b, acc) })
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("blocked/%s MatMulTransB %dx%dx%d acc=%v: bit mismatch at %d",
						sched, sz.m, sz.k, sz.n, acc, i)
				}
			}
		}
	}
}

// TestLinearFusedMatchesUnfused pins the fused bias+matmul against the
// historical two-pass sequence (matmul into a zeroed destination, then a
// bias sweep) for scalar and for blocked under both schedules.
func TestLinearFusedMatchesUnfused(t *testing.T) {
	r := rng.New(17)
	sizes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 5, 3}, {7, 13, 9}, {32, 400, 120}, {5, 84, 10},
	}
	for _, sz := range sizes {
		x := tensor.New(sz.m, sz.k)
		w := tensor.New(sz.n, sz.k)
		fill(x, r)
		fill(w, r)
		bias := make([]float64, sz.n)
		for i := range bias {
			if r.Intn(6) == 0 {
				bias[i] = math.Copysign(0, -1)
			} else {
				bias[i] = r.Gauss(0, 1)
			}
		}
		want := tensor.New(sz.m, sz.n)
		tensor.MatMulTransBInto(want, x, w, false)
		for bi := 0; bi < sz.m; bi++ {
			row := want.Data[bi*sz.n : (bi+1)*sz.n]
			for j := range row {
				row[j] += bias[j]
			}
		}
		for _, run := range []struct {
			back  Backend
			sched string
		}{{scalar{}, ""}, {blocked{}, "pool"}, {blocked{}, "inline"}} {
			got := tensor.New(sz.m, sz.n)
			fill(got, r) // dst may hold garbage on entry
			withSchedule(run.sched, func() { run.back.Linear(got, x, w, bias) })
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("%s/%s Linear %dx%dx%d: bit mismatch at %d: %g vs %g",
					run.back.Name(), run.sched, sz.m, sz.k, sz.n, i, want.Data[i], got.Data[i])
			}
		}
	}
}

// convGeoms covers stride-1 and strided convolutions, 1x1 and wide kernels,
// zero and fat padding, geometries where padding dominates entire rows, an
// output map too small to hold a packed panel, and an output-channel count
// that takes every tile width (8+4+2+1).
var convGeoms = []struct {
	inC, inH, inW, outC, kh, kw, stride, pad int
}{
	{1, 5, 5, 2, 3, 3, 1, 1},
	{3, 8, 9, 4, 3, 3, 1, 1},
	{2, 7, 7, 3, 5, 5, 1, 2},
	{1, 6, 6, 2, 1, 1, 1, 0},
	{2, 28, 28, 6, 5, 5, 1, 2},
	{3, 9, 9, 5, 3, 3, 2, 1},
	{2, 8, 8, 4, 3, 3, 2, 0},
	{4, 16, 16, 8, 3, 3, 1, 1},
	{1, 4, 4, 2, 3, 3, 1, 2},
	{2, 5, 3, 3, 3, 3, 2, 1},
	{3, 2, 2, 5, 3, 3, 1, 1},
	{2, 6, 6, 15, 3, 3, 1, 1},
}

// referenceConv is the historical conv forward: im2col, MatMulInto, bias
// broadcast.
func referenceConv(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64) {
	b := x.Shape[0]
	cols := tensor.New(g.ColRows(), g.ColCols())
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := outC * g.ColCols()
	for bi := 0; bi < b; bi++ {
		g.Im2ColInto(cols, x.Data[bi*sampleIn:(bi+1)*sampleIn])
		om := tensor.FromSlice(dst.Data[bi*sampleOut:(bi+1)*sampleOut], outC, g.ColCols())
		tensor.MatMulInto(om, w, cols, false)
	}
	hw := g.OutH * g.OutW
	for bi := 0; bi < b; bi++ {
		for oc := 0; oc < outC; oc++ {
			bv := bias[oc]
			seg := dst.Data[(bi*outC+oc)*hw : (bi*outC+oc+1)*hw]
			for i := range seg {
				seg[i] += bv
			}
		}
	}
}

func TestConv2DVariantsBitIdentical(t *testing.T) {
	r := rng.New(23)
	for _, cg := range convGeoms {
		g := tensor.NewConv2DGeom(cg.inC, cg.inH, cg.inW, cg.kh, cg.kw, cg.stride, cg.pad)
		for _, batch := range []int{1, 3, 7} {
			x := tensor.New(batch, g.InC, g.InH, g.InW)
			w := tensor.New(cg.outC, g.ColRows())
			fill(x, r)
			fill(w, r)
			bias := make([]float64, cg.outC)
			for i := range bias {
				bias[i] = r.Gauss(0, 1)
			}
			want := tensor.New(batch, cg.outC, g.OutH, g.OutW)
			referenceConv(g, cg.outC, want, x, w, bias)
			cols := tensor.New(g.ColRows(), g.ColCols())
			check := func(name string, conv func(got *tensor.Tensor)) {
				t.Helper()
				got := tensor.New(batch, cg.outC, g.OutH, g.OutW)
				fill(got, r)
				conv(got)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("%s Conv2D %+v batch=%d: bit mismatch at %d: %g vs %g",
						name, cg, batch, i, want.Data[i], got.Data[i])
				}
			}
			check("scalar", func(got *tensor.Tensor) { scalar{}.Conv2D(g, cg.outC, got, x, w, bias, cols) })
			for _, sched := range schedules {
				check("blocked/"+sched, func(got *tensor.Tensor) {
					withSchedule(sched, func() { blocked{}.Conv2D(g, cg.outC, got, x, w, bias, cols) })
				})
			}
		}
	}
}

// TestParallelConcurrentCallers drives blocked's shared pool from many
// goroutines at once, stride 1 and strided, each caller with its own
// workspace: contended dispatches fall back to the inline path, and every
// caller must still produce bit-identical results.
func TestParallelConcurrentCallers(t *testing.T) {
	back := Default()
	for _, stride := range []int{1, 2} {
		g := tensor.NewConv2DGeom(3, 16, 16, 3, 3, stride, 1)
		const outC = 8
		r := rng.New(31)
		x := tensor.New(4, g.InC, g.InH, g.InW)
		w := tensor.New(outC, g.ColRows())
		fill(x, r)
		fill(w, r)
		bias := make([]float64, outC)
		for i := range bias {
			bias[i] = r.Gauss(0, 1)
		}
		want := tensor.New(4, outC, g.OutH, g.OutW)
		referenceConv(g, outC, want, x, w, bias)

		const callers = 8
		outs := make([]*tensor.Tensor, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			outs[c] = tensor.New(4, outC, g.OutH, g.OutW)
			wg.Add(1)
			go func(dst, cols *tensor.Tensor) {
				defer wg.Done()
				for iter := 0; iter < 20; iter++ {
					back.Conv2D(g, outC, dst, x, w, bias, cols)
				}
			}(outs[c], tensor.New(g.ColRows(), g.ColCols()))
		}
		wg.Wait()
		for c, got := range outs {
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("stride %d caller %d: bit mismatch at %d", stride, c, i)
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	if names := strings.Join(Backends.Names(), ","); names != "blocked,scalar" {
		t.Fatalf("Backends.Names() = %s, want blocked,scalar", names)
	}
	if Default().Spec() != "blocked" {
		t.Fatalf("Default() = %q, want blocked", Default().Spec())
	}
	if err := Backends.Register("", nil); err == nil {
		t.Fatal("Register with empty name and nil builder should fail")
	}
	if err := Backends.Register("scalar", func(*registry.Params) (Backend, error) { return Default(), nil }); err == nil {
		t.Fatal("duplicate Register should fail")
	}
	for _, spec := range []string{"nope", "parallel", "parallel:workers=2"} {
		if _, err := Parse(spec); err == nil || !strings.Contains(err.Error(), "registered") {
			t.Fatalf("Parse(%q): got %v, want unknown-backend error with listing hint", spec, err)
		}
	}
	if _, err := Parse("blocked:bogus=1"); err == nil {
		t.Fatal("unknown parameter should fail")
	}
	if _, err := Parse("blocked:workers"); err == nil {
		t.Fatal("parameter without value should fail")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{"scalar", "blocked"} {
		b, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if b.Spec() != spec || b.Name() != spec {
			t.Fatalf("Parse(%q) = %q/%q", spec, b.Name(), b.Spec())
		}
	}
}

func TestFromFlag(t *testing.T) {
	b, listing, err := FromFlag("")
	if err != nil || listing != "" || b == nil || b.Name() != "blocked" {
		t.Fatalf("FromFlag(\"\") = %v, %q, %v; want blocked default", b, listing, err)
	}
	b, listing, err = FromFlag("list")
	if err != nil || b != nil || listing != "blocked\nscalar" {
		t.Fatalf("FromFlag(list) = %v, %q, %v", b, listing, err)
	}
	if b, _, err = FromFlag(" scalar "); err != nil || b.Name() != "scalar" {
		t.Fatalf("FromFlag(scalar) = %v, %v", b, err)
	}
	for _, spec := range []string{"nope", fmt.Sprintf("parallel:workers=%d", runtime.NumCPU())} {
		if _, _, err = FromFlag(spec); err == nil {
			t.Fatalf("FromFlag(%q) should fail", spec)
		}
	}
}
