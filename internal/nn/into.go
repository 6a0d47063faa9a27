package nn

import (
	"fmt"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// PlanLayer is the compiled-evaluation contract every layer in this
// repository implements on top of Layer. A layer that satisfies PlanLayer can
// be compiled into an allocation-free evaluation plan (package eval): OutShape
// lets the compiler infer every intermediate shape for a fixed batch size up
// front, and ForwardInto executes the inference-mode forward pass into a
// caller-owned destination, drawing any temporary buffers from the scratch
// arena instead of the heap.
//
// ForwardInto contracts:
//
//   - it computes the evaluation-mode (train=false) forward pass only;
//   - dst is fully overwritten (it may hold garbage on entry) and must not
//     alias x;
//   - no state needed by Backward/BackwardSecond is updated — the legacy
//     Forward path remains the entry point for training and sensitivity
//     passes;
//   - scratch may be nil, in which case temporaries fall back to the layer's
//     own cached buffers or the heap;
//   - buffers carved from scratch are released by the caller's next
//     Arena.Reset, so implementations must not retain them across calls.
//
// The arithmetic of ForwardInto is bit-for-bit identical to the
// evaluation-mode Forward: each output element goes through the same
// per-element expressions, so a compiled plan reproduces legacy results
// exactly (pinned by the equivalence tests in package eval). Elementwise
// layers also implement PointwiseLayer, and their ForwardInto is a loop over
// Pointwise, so that arithmetic exists once whether a plan runs the layer as
// its own step or folds it into its producer's epilogue.
type PlanLayer interface {
	Layer
	// OutShape returns the output shape produced for a batched input of the
	// given shape (axis 0 is the batch), or an error when the input shape is
	// incompatible with the layer.
	OutShape(in []int) ([]int, error)
	// ForwardInto computes the evaluation-mode forward pass into dst.
	ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena)
}

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
// normalization) and the analog crossbar layers (whose arithmetic is the
// device model's, not a dense matmul) do not implement KernelLayer; plans
// fall back to their plain ForwardInto.
type KernelLayer interface {
	PlanLayer
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
	PlanLayer
	// Pointwise applies the evaluation-mode forward pass of channel ch to
	// src, writing dst (which may equal src).
	Pointwise(dst, src []float64, ch int)
}

// Compile-time checks: every layer in the package satisfies PlanLayer.
var (
	_ PlanLayer = (*Linear)(nil)
	_ PlanLayer = (*Conv2D)(nil)
	_ PlanLayer = (*BatchNorm2D)(nil)
	_ PlanLayer = (*ReLU)(nil)
	_ PlanLayer = (*QuantAct)(nil)
	_ PlanLayer = (*MaxPool2D)(nil)
	_ PlanLayer = (*AvgPool2D)(nil)
	_ PlanLayer = (*Flatten)(nil)
	_ PlanLayer = (*Sequential)(nil)
	_ PlanLayer = (*Residual)(nil)
	_ PlanLayer = (*Sigmoid)(nil)
	_ PlanLayer = (*Tanh)(nil)

	_ KernelLayer = (*Linear)(nil)
	_ KernelLayer = (*Conv2D)(nil)

	_ PointwiseLayer = (*BatchNorm2D)(nil)
	_ PointwiseLayer = (*ReLU)(nil)
	_ PointwiseLayer = (*QuantAct)(nil)
)

// planChild asserts that a container child implements PlanLayer.
func planChild(l Layer) (PlanLayer, error) {
	pl, ok := l.(PlanLayer)
	if !ok {
		return nil, fmt.Errorf("nn: layer %s (%T) does not support compiled evaluation", l.Name(), l)
	}
	return pl, nil
}

// OutShape implements PlanLayer by folding the children's shape inference.
func (s *Sequential) OutShape(in []int) ([]int, error) {
	cur := in
	for _, l := range s.Layers {
		pl, err := planChild(l)
		if err != nil {
			return nil, err
		}
		if cur, err = pl.OutShape(cur); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return cur, nil
}

// ForwardInto implements PlanLayer: each child's output is carved from the
// scratch arena, with the final child writing directly into dst. Compiled
// plans flatten Sequential instead of calling this (the per-call shape
// inference here allocates); it exists for the contract and the legacy
// wrapper paths.
func (s *Sequential) ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena) {
	cur := x
	for i, l := range s.Layers {
		pl, err := planChild(l)
		if err != nil {
			panic(err)
		}
		if i == len(s.Layers)-1 {
			pl.ForwardInto(dst, cur, scratch)
			return
		}
		shape, err := pl.OutShape(cur.Shape)
		if err != nil {
			panic(fmt.Sprintf("nn: %s: %v", s.name, err))
		}
		var out *tensor.Tensor
		if scratch != nil {
			out = scratch.Alloc(shape...)
		} else {
			out = tensor.New(shape...)
		}
		pl.ForwardInto(out, cur, scratch)
		cur = out
	}
	// Empty Sequential: identity.
	copy(dst.Data, x.Data)
}

// OutShape implements PlanLayer. The body defines the output shape; a
// projection shortcut must produce the same shape (an identity skip requires
// the body to preserve the input shape).
func (r *Residual) OutShape(in []int) ([]int, error) {
	body, err := planChild(r.Body)
	if err != nil {
		return nil, err
	}
	out, err := body.OutShape(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	if r.Shortcut != nil {
		short, err := planChild(r.Shortcut)
		if err != nil {
			return nil, err
		}
		sout, err := short.OutShape(in)
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

// ForwardInto implements PlanLayer: body into dst, shortcut into a scratch
// temporary, then the branch sum — the same order (and therefore the same
// floating-point results) as the legacy Forward.
func (r *Residual) ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena) {
	body, err := planChild(r.Body)
	if err != nil {
		panic(err)
	}
	body.ForwardInto(dst, x, scratch)
	if r.Shortcut == nil {
		dst.Add(x)
		return
	}
	short, err := planChild(r.Shortcut)
	if err != nil {
		panic(err)
	}
	var tmp *tensor.Tensor
	if scratch != nil {
		tmp = scratch.Alloc(dst.Shape...)
	} else {
		tmp = tensor.New(dst.Shape...)
	}
	short.ForwardInto(tmp, x, scratch)
	dst.Add(tmp)
}

// OutShape implements PlanLayer.
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

// ForwardInto implements PlanLayer. Unlike the legacy Forward, which returns
// an aliasing reshape view, the plan path copies into the destination buffer
// (same values, no aliasing between plan buffers).
func (f *Flatten) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena) {
	copy(dst.Data, x.Data)
}
