package nn

import (
	"fmt"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// KernelLayer is implemented by the layers whose ForwardInto is built from
// the dense primitives of a kernel.Backend (matmul, fused bias+matmul,
// convolution). ForwardIntoKernel is ForwardInto with an explicit backend:
// compiled plans route these layers through the plan's selected backend,
// while ForwardInto itself always runs kernel.Default(). Because every
// registered backend is bit-identical to scalar (the package kernel
// determinism contract), the two entry points produce the same bits for any
// backend choice — backend selection is an execution hint, never a
// computation axis.
//
// Layers whose forward pass has no dense primitive (activations, pooling,
// normalization) do not implement KernelLayer; plans run their plain
// ForwardInto.
type KernelLayer interface {
	Layer
	// ForwardIntoKernel computes the evaluation-mode forward pass into dst
	// through the given kernel backend, under the same contracts as
	// ForwardInto.
	ForwardIntoKernel(dst, x *tensor.Tensor, scratch *tensor.Arena, k kernel.Backend)
}

// PointwiseLayer is implemented by the layers whose evaluation-mode forward
// pass maps every element independently, given its channel: BatchNorm2D
// (frozen statistics), ReLU and QuantAct. Compiled plans fold a run of them
// onto the step that produces their input and apply it in place, one
// segment at a time, so the folded layers need no buffer of their own.
//
// Pointwise contracts:
//
//   - it computes the evaluation-mode forward pass of the elements in src,
//     all of which belong to channel ch (axis 1 of a [B, C, ...] tensor),
//     into dst;
//   - dst has len(src) elements and may be src itself (in place), but must
//     not partially overlap it;
//   - ch is ignored by the channel-agnostic layers (ReLU, QuantAct), so a
//     segment may then span several channels or a whole tensor;
//   - the loop is branch-free in the data, and the result is bit-identical
//     to ForwardInto (which is a loop over Pointwise) and to the
//     evaluation-mode Forward.
type PointwiseLayer interface {
	Layer
	// Pointwise applies the evaluation-mode forward pass of channel ch to
	// src, writing dst (which may equal src).
	Pointwise(dst, src []float64, ch int)
}

// Compile-time checks of the optional contracts.
var (
	_ KernelLayer = (*Linear)(nil)
	_ KernelLayer = (*Conv2D)(nil)

	_ PointwiseLayer = (*BatchNorm2D)(nil)
	_ PointwiseLayer = (*ReLU)(nil)
	_ PointwiseLayer = (*QuantAct)(nil)
)

// OutShape implements Layer by folding the children's shape inference.
func (s *Sequential) OutShape(in []int) ([]int, error) {
	cur := in
	for _, l := range s.Layers {
		var err error
		if cur, err = l.OutShape(cur); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return cur, nil
}

// ForwardInto implements Layer: each child's output is carved from the
// scratch arena, with the final child writing directly into dst. Compiled
// plans flatten Sequential instead of calling this (the per-call shape
// inference here allocates); it exists for the contract.
func (s *Sequential) ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena) {
	cur := x
	for i, l := range s.Layers {
		if i == len(s.Layers)-1 {
			l.ForwardInto(dst, cur, scratch)
			return
		}
		shape, err := l.OutShape(cur.Shape)
		if err != nil {
			panic(fmt.Sprintf("nn: %s: %v", s.name, err))
		}
		var out *tensor.Tensor
		if scratch != nil {
			out = scratch.Alloc(shape...)
		} else {
			out = tensor.New(shape...)
		}
		l.ForwardInto(out, cur, scratch)
		cur = out
	}
	// Empty Sequential: identity.
	copy(dst.Data, x.Data)
}

// OutShape implements Layer. The body defines the output shape; a
// projection shortcut must produce the same shape (an identity skip requires
// the body to preserve the input shape).
func (r *Residual) OutShape(in []int) ([]int, error) {
	out, err := r.Body.OutShape(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	if r.Shortcut != nil {
		sout, err := r.Shortcut.OutShape(in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		if !tensor.ShapeEq(out, sout) {
			return nil, fmt.Errorf("%s: body shape %v != shortcut shape %v", r.name, out, sout)
		}
	} else if !tensor.ShapeEq(out, in) {
		return nil, fmt.Errorf("%s: identity skip needs body to preserve shape, got %v -> %v", r.name, in, out)
	}
	return out, nil
}

// ForwardInto implements Layer: body into dst, shortcut into a scratch
// temporary, then the branch sum — the same order (and therefore the same
// floating-point results) as Forward.
func (r *Residual) ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena) {
	r.Body.ForwardInto(dst, x, scratch)
	if r.Shortcut == nil {
		dst.Add(x)
		return
	}
	var tmp *tensor.Tensor
	if scratch != nil {
		tmp = scratch.Alloc(dst.Shape...)
	} else {
		tmp = tensor.New(dst.Shape...)
	}
	r.Shortcut.ForwardInto(tmp, x, scratch)
	dst.Add(tmp)
}

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) ([]int, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("flatten: need a batched input, got shape %v", in)
	}
	n := 1
	for _, d := range in[1:] {
		n *= d
	}
	return []int{in[0], n}, nil
}

// ForwardInto implements Layer. Unlike Forward, which returns
// an aliasing reshape view, the plan path copies into the destination buffer
// (same values, no aliasing between plan buffers).
func (f *Flatten) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena) {
	copy(dst.Data, x.Data)
}
