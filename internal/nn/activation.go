package nn

import (
	"math"

	"swim/internal/tensor"
)

// ReLU is the rectified linear activation. Per the paper's Eq. 10 the second
// derivative passes through the same 0/1 mask as the gradient (g′ ∈ {0,1},
// g″ = 0), so BackwardSecond is structurally identical to Backward.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Forward implements Layer. The values come from Pointwise, the rule
// compiled plans run; training additionally records the gradient mask.
func (r *ReLU) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	r.Pointwise(out.Data, x.Data, 0)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		r.mask[i] = v > 0
	}
	return out
}

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) ([]int, error) { return in, nil }

// ForwardInto implements Layer (no mask bookkeeping — inference only).
func (r *ReLU) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena) {
	r.Pointwise(dst.Data, x.Data, 0)
}

// reluKeep bounds the bit patterns ReLU passes through. With b the bits of
// v, b-1 < reluKeep holds exactly for 0 < v <= +Inf: +0 wraps to the top of
// the uint64 range, and a set sign bit or a NaN exponent lands at or above
// the bound.
const reluKeep = 0x7FF0000000000000

// Pointwise implements PointwiseLayer: dst[i] is src[i] when src[i] > 0 and
// +0 otherwise (NaN included). The test is an unsigned compare on the bit
// pattern feeding an integer select, so the loop has no data-dependent
// branch: post-BN signs are close to a coin flip, which a branch would
// mispredict about half the time.
func (r *ReLU) Pointwise(dst, src []float64, _ int) {
	dst = dst[:len(src)]
	for i, v := range src {
		b := math.Float64bits(v)
		var out uint64
		if b-1 < reluKeep {
			out = b
		}
		dst[i] = math.Float64frombits(out)
	}
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := gradOut.Clone()
	for i := range gradIn.Data {
		if !r.mask[i] {
			gradIn.Data[i] = 0
		}
	}
	return gradIn
}

// BackwardSecond implements Layer.
func (r *ReLU) BackwardSecond(hessOut *tensor.Tensor) *tensor.Tensor {
	hessIn := hessOut.Clone()
	for i := range hessIn.Data {
		if !r.mask[i] {
			hessIn.Data[i] = 0
		}
	}
	return hessIn
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// QuantAct fake-quantizes activations to Bits bits over [0, Max] (activations
// in this repo follow ReLU, so they are non-negative). Training uses the
// straight-through estimator: within range the derivative is treated as 1, so
// both backward passes apply the same in-range mask (g″ = 0 almost
// everywhere). This reproduces the paper's setting where "both the weights
// and activation are quantized".
type QuantAct struct {
	name string
	Bits int
	Max  float64
	// Calibrate widens Max to the observed maximum while training, emulating
	// a calibration pass; frozen during evaluation.
	Calibrate bool
	// Disabled turns the layer into a pass-through. Diagnostics that need
	// the smooth underlying network (e.g. finite-difference curvature
	// checks, where the rounding staircase would swamp the signal) disable
	// quantizers on a cloned network.
	Disabled bool

	inRange []bool
}

// NewQuantAct builds an activation quantizer with an initial range estimate.
func NewQuantAct(name string, bits int, maxAbs float64) *QuantAct {
	return &QuantAct{name: name, Bits: bits, Max: maxAbs, Calibrate: true}
}

// Levels returns the number of quantization steps.
func (q *QuantAct) Levels() int { return (1 << q.Bits) - 1 }

// Name implements Layer.
func (q *QuantAct) Name() string { return q.name }

// Forward implements Layer. The values come from Pointwise, the quantizer
// compiled plans run; training additionally calibrates Max and records the
// straight-through in-range mask.
func (q *QuantAct) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if cap(q.inRange) < len(x.Data) {
		q.inRange = make([]bool, len(x.Data))
	}
	q.inRange = q.inRange[:len(x.Data)]
	if q.Disabled {
		for i := range q.inRange {
			q.inRange[i] = true
		}
		return x
	}
	if train && q.Calibrate {
		if m := x.AbsMax(); m > q.Max {
			q.Max = m
		}
	}
	out := tensor.New(x.Shape...)
	q.Pointwise(out.Data, x.Data, 0)
	if q.step() == 0 {
		for i := range q.inRange {
			q.inRange[i] = true
		}
		return out
	}
	for i, v := range x.Data {
		q.inRange[i] = v >= 0 && v <= q.Max
	}
	return out
}

// OutShape implements Layer.
func (q *QuantAct) OutShape(in []int) ([]int, error) { return in, nil }

// ForwardInto implements Layer: the evaluation-mode quantization (no
// range calibration, no straight-through mask bookkeeping).
func (q *QuantAct) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena) {
	q.Pointwise(dst.Data, x.Data, 0)
}

// step returns the quantization step Max/Levels; 0 makes the layer a copy.
func (q *QuantAct) step() float64 { return q.Max / float64(q.Levels()) }

// roundMagic is 2^52: for 0 <= u <= 2^52, (u+roundMagic)-roundMagic is u
// rounded to the nearest integer, ties to even, since the sum's ulp is 1.
const roundMagic = 1 << 52

// Pointwise implements PointwiseLayer. Each value v maps to 0 when v < 0, to
// Max when v > Max, and otherwise to math.Round(v/step)*step, bit for bit,
// for every v and Max including ±0, NaN, ±Inf and subnormals; a Disabled
// layer or a zero step copies.
//
// The loop has no data-dependent branch, and no int64 round trip (two
// conversions on the critical path cost more than the branches they
// replace). With u = v/step, t = RNE(u) comes from the 2^52 magic-number
// add, and math.Round (ties away from zero) differs from it only on an
// exact tie rounded down, where u-t (exact) is 0.5; both candidate
// products are computed and one is selected on bits. A zero result takes
// the sign of u, as math.Round's does. An in-range v has
// 0 <= u <= Max/step, far below 2^52 even for a subnormal step, so every
// kept product is exact math.Round; the rest are overwritten by integer
// selects: a NaN u passes through (math.Round and ·step return it), then
// Max for v > Max and +0 for v < 0. The division stays: v*(1/step) rounds
// differently.
func (q *QuantAct) Pointwise(dst, src []float64, _ int) {
	step := q.step()
	if q.Disabled || step == 0 {
		copy(dst, src)
		return
	}
	const sign, half, inf = 1 << 63, 0x3FE0000000000000, 0x7FF0000000000000
	hi := q.Max
	hiBits := math.Float64bits(hi)
	dst = dst[:len(src)]
	for i, v := range src {
		u := v / step
		ub := math.Float64bits(u)
		t := (u + roundMagic) - roundMagic
		out, up := math.Float64bits(t*step), math.Float64bits((t+1)*step)
		if math.Float64bits(u-t) == half {
			out = up
		}
		if out == 0 {
			out = ub & sign
		}
		if ub&^sign > inf {
			out = ub
		}
		if v > hi {
			out = hiBits
		}
		if v < 0 {
			out = 0
		}
		dst[i] = math.Float64frombits(out)
	}
}

// Backward implements Layer.
func (q *QuantAct) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := gradOut.Clone()
	for i := range gradIn.Data {
		if !q.inRange[i] {
			gradIn.Data[i] = 0
		}
	}
	return gradIn
}

// BackwardSecond implements Layer.
func (q *QuantAct) BackwardSecond(hessOut *tensor.Tensor) *tensor.Tensor {
	hessIn := hessOut.Clone()
	for i := range hessIn.Data {
		if !q.inRange[i] {
			hessIn.Data[i] = 0
		}
	}
	return hessIn
}

// Params implements Layer.
func (q *QuantAct) Params() []*Param { return nil }

// Clone implements Layer.
func (q *QuantAct) Clone() Layer {
	return &QuantAct{name: q.name, Bits: q.Bits, Max: q.Max, Calibrate: q.Calibrate, Disabled: q.Disabled}
}
