package nn

import (
	"math"
	"testing"

	"swim/internal/rng"
)

// quantRef is the reference quantizer the branch-free QuantAct.Pointwise
// replaces, written with data-dependent branches and math.Round.
func quantRef(bits int, max, v float64) float64 {
	step := max / float64(int(1)<<bits-1)
	switch {
	case step == 0:
		return v
	case v < 0:
		return 0
	case v > max:
		return max
	}
	return math.Round(v/step) * step
}

// specialValues are the inputs the pointwise rules must get right bit for
// bit: signed zeros, NaNs, infinities, subnormals and the extremes.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xFFF8000000000001),
	math.Float64frombits(0x7FF0000000000001), // signalling NaN
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, 1e-300,
}

// TestReLUPointwiseBitRule pins the bit-pattern rule of ReLU.Pointwise
// against the comparison it replaces (v > 0 keeps v, anything else is +0).
func TestReLUPointwiseBitRule(t *testing.T) {
	r := NewReLU()
	for _, v := range specialValues {
		want := 0.0
		if v > 0 {
			want = v
		}
		got := []float64{v}
		r.Pointwise(got, got, 0)
		if math.Float64bits(got[0]) != math.Float64bits(want) {
			t.Errorf("relu(%v [%#x]) = %#x, want %#x", v, math.Float64bits(v),
				math.Float64bits(got[0]), math.Float64bits(want))
		}
	}
}

// checkQuant compares QuantAct.Pointwise with quantRef on one value.
func checkQuant(t *testing.T, bits int, max, v float64) {
	t.Helper()
	q := NewQuantAct("q", bits, max)
	got := []float64{v}
	q.Pointwise(got, got, 0)
	if want := quantRef(bits, max, v); math.Float64bits(got[0]) != math.Float64bits(want) {
		t.Fatalf("quant(bits=%d, max=%v [%#x], v=%v [%#x]) = %#x, want %#x", bits, max,
			math.Float64bits(max), v, math.Float64bits(v), math.Float64bits(got[0]), math.Float64bits(want))
	}
}

// halfSteps returns every rounding boundary (k+0.5)·step of a quantizer and
// its neighbours one ulp either side, plus the grid points and Max.
func halfSteps(bits int, max float64) []float64 {
	step := max / float64(int(1)<<bits-1)
	var vs []float64
	for k := 0; k < 1<<bits; k++ {
		for _, c := range []float64{(float64(k) + 0.5) * step, float64(k) * step} {
			vs = append(vs, c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1)))
		}
	}
	return append(vs, max, math.Nextafter(max, math.Inf(1)))
}

// TestQuantActPointwiseExact sweeps the branch-free quantizer over every
// rounding boundary and special value for each bit width, at a typical Max,
// an awkward one and a subnormal one (where Max/step is far from Levels).
func TestQuantActPointwiseExact(t *testing.T) {
	for bits := 1; bits <= 8; bits++ {
		for _, max := range []float64{1, 0.7310585786300049, 3e-310, -2, math.Inf(1), math.NaN()} {
			for _, v := range append(halfSteps(bits, max), specialValues...) {
				checkQuant(t, bits, max, v)
			}
		}
	}
}

// FuzzQuantActPointwise compares the branch-free QuantAct.Pointwise with the
// reference expression by bit pattern for arbitrary (bits, Max, v); the
// fuzzed byte b selects bits = b%8 + 1. The committed corpus
// (testdata/fuzz) covers ±0, NaNs, ±Inf, Max, the half-step neighbours
// Nextafter((k+0.5)·step, ±Inf) and subnormal values and ranges.
func FuzzQuantActPointwise(f *testing.F) {
	f.Fuzz(func(t *testing.T, b uint8, max, v float64) {
		checkQuant(t, int(b%8)+1, max, v)
	})
}

// BenchmarkPointwise times the per-element rules on post-BN-like inputs:
// Gaussian, half of them negative, and too many for the branch predictor
// to learn the sign pattern. quantact-branchy is the loop the branch-free
// quantizer replaced.
func BenchmarkPointwise(b *testing.B) {
	r := rng.New(1)
	src := make([]float64, 1<<14)
	for i := range src {
		src[i] = r.Gauss(0, 0.5)
	}
	dst := make([]float64, len(src))
	relu, quant, bn := NewReLU(), NewQuantAct("q", 6, 1), NewBatchNorm2D("bn", 1)
	for _, bc := range []struct {
		name string
		run  func()
	}{
		{"relu", func() { relu.Pointwise(dst, src, 0) }},
		{"quantact", func() { quant.Pointwise(dst, src, 0) }},
		{"quantact-branchy", func() {
			step := quant.Max / float64(quant.Levels())
			for i, v := range src {
				switch {
				case v < 0:
					dst[i] = 0
				case v > quant.Max:
					dst[i] = quant.Max
				default:
					dst[i] = math.Round(v/step) * step
				}
			}
		}},
		{"batchnorm", func() { bn.Pointwise(dst, src, 0) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}
