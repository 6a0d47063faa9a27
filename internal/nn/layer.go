package nn

import (
	"fmt"

	"swim/internal/tensor"
)

// Layer is the common contract of every network building block. A layer owns
// whatever activations it must cache between the forward and the two backward
// passes, so a single layer instance must not be shared between concurrently
// evaluated networks — use Clone for per-trial copies.
//
// Every layer also carries the compiled-evaluation half of the contract, so
// any network can be compiled into an allocation-free evaluation plan
// (package eval): OutShape lets the compiler infer every intermediate shape
// for a fixed batch size up front, and ForwardInto executes the
// inference-mode forward pass into a caller-owned destination, drawing any
// temporary buffers from the scratch arena instead of the heap.
//
// ForwardInto contracts:
//
//   - it computes the evaluation-mode (train=false) forward pass only;
//   - dst is fully overwritten (it may hold garbage on entry) and must not
//     alias x;
//   - no state needed by Backward/BackwardSecond is updated — Forward
//     remains the entry point for training and sensitivity passes;
//   - scratch may be nil, in which case temporaries fall back to the layer's
//     own cached buffers or the heap;
//   - buffers carved from scratch are released by the caller's next
//     Arena.Reset, so implementations must not retain them across calls.
//
// The arithmetic of ForwardInto is bit-for-bit identical to the
// evaluation-mode Forward: each output element goes through the same
// per-element expressions, so a compiled plan reproduces Forward exactly
// (pinned by the equivalence tests in package eval). Elementwise layers also
// implement PointwiseLayer, and their ForwardInto is a loop over Pointwise,
// so that arithmetic exists once whether a plan runs the layer as its own
// step or folds it into its producer's epilogue.
type Layer interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Forward computes the layer output for a batch (axis 0 is the batch).
	// train selects training behaviour (batch-norm batch statistics). The
	// returned tensor may be a layer-owned buffer that the next Forward call
	// overwrites (Residual does this); callers holding outputs across calls
	// must Clone them.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes df/dOutput and returns df/dInput, accumulating
	// parameter gradients. It must follow a Forward call.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// BackwardSecond consumes d²f/dOutput² and returns d²f/dInput²,
	// accumulating parameter Hessian diagonals per the paper's Eq. 8–10.
	// It must follow a Forward call (Backward is not required first).
	BackwardSecond(hessOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's parameters (empty for stateless layers).
	Params() []*Param
	// Clone returns a deep copy with independent parameters and caches.
	Clone() Layer
	// OutShape returns the output shape produced for a batched input of the
	// given shape (axis 0 is the batch), or an error when the input shape is
	// incompatible with the layer.
	OutShape(in []int) ([]int, error)
	// ForwardInto computes the evaluation-mode forward pass into dst.
	ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena)
}

// Sequential chains layers, feeding each output into the next.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a named layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// BackwardSecond implements Layer.
func (s *Sequential) BackwardSecond(hessOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		hessOut = s.Layers[i].BackwardSecond(hessOut)
	}
	return hessOut
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Clone implements Layer.
func (s *Sequential) Clone() Layer {
	ls := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		ls[i] = l.Clone()
	}
	return &Sequential{name: s.name, Layers: ls}
}

// Residual implements a skip connection: out = Body(x) + Shortcut(x).
// Shortcut may be nil for an identity skip. During both backward passes the
// contributions of the two branches are summed, matching the paper's rule
// that "the second derivatives of different branches are summed up".
type Residual struct {
	name     string
	Body     Layer
	Shortcut Layer // nil means identity

	// out is the cached forward output buffer, reused across calls when the
	// batch shape is unchanged so Forward does not pay a Clone per call. The
	// buffer is owned by this layer and overwritten by the next Forward call
	// with a matching shape.
	out *tensor.Tensor
}

// NewResidual builds a residual block from a body and optional projection
// shortcut (pass nil for identity).
func NewResidual(name string, body, shortcut Layer) *Residual {
	return &Residual{name: name, Body: body, Shortcut: shortcut}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Forward implements Layer. Unlike most layers, the returned tensor is a
// layer-owned buffer that the next same-shape Forward call overwrites in
// place: callers that need the output across two forward passes must Clone
// it. (Training loops never do — each Forward is consumed by its backward
// pass before the next call — and the compiled evaluation path documents the
// same valid-until-next-Forward semantics.)
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	body := r.Body.Forward(x, train)
	if r.out == nil || !r.out.SameShape(body) {
		r.out = tensor.New(body.Shape...)
	}
	copy(r.out.Data, body.Data)
	if r.Shortcut != nil {
		r.out.Add(r.Shortcut.Forward(x, train))
	} else {
		r.out.Add(x)
	}
	return r.out
}

// Backward implements Layer.
func (r *Residual) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gradIn := r.Body.Backward(gradOut).Clone()
	if r.Shortcut != nil {
		gradIn.Add(r.Shortcut.Backward(gradOut))
	} else {
		gradIn.Add(gradOut)
	}
	return gradIn
}

// BackwardSecond implements Layer.
func (r *Residual) BackwardSecond(hessOut *tensor.Tensor) *tensor.Tensor {
	hessIn := r.Body.BackwardSecond(hessOut).Clone()
	if r.Shortcut != nil {
		hessIn.Add(r.Shortcut.BackwardSecond(hessOut))
	} else {
		hessIn.Add(hessOut)
	}
	return hessIn
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}

// Clone implements Layer.
func (r *Residual) Clone() Layer {
	c := &Residual{name: r.name, Body: r.Body.Clone()}
	if r.Shortcut != nil {
		c.Shortcut = r.Shortcut.Clone()
	}
	return c
}

// Flatten reshapes [B, ...] activations to [B, features].
type Flatten struct {
	inShape []int
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	b := x.Shape[0]
	return x.Reshape(b, x.Size()/b)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(f.inShape...)
}

// BackwardSecond implements Layer.
func (f *Flatten) BackwardSecond(hessOut *tensor.Tensor) *tensor.Tensor {
	return hessOut.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{} }

// Walk visits every layer in the tree rooted at l (depth-first, pre-order),
// descending into Sequential and Residual containers. It is the traversal
// hook used by serialization and diagnostics.
func Walk(l Layer, visit func(Layer)) {
	visit(l)
	switch v := l.(type) {
	case *Sequential:
		for _, child := range v.Layers {
			Walk(child, visit)
		}
	case *Residual:
		Walk(v.Body, visit)
		if v.Shortcut != nil {
			Walk(v.Shortcut, visit)
		}
	}
}

func checkBatched(x *tensor.Tensor, wantRank int, who string) {
	if len(x.Shape) != wantRank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", who, wantRank, x.Shape))
	}
}
