package main

import (
	"sync/atomic"
	"time"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// primStats accumulates one kernel primitive's calls, wall time, computed
// multiply-adds and computed bytes (operands read plus results written, at
// 8 bytes per float64; im2col workspaces inside Conv2D are not counted).
type primStats struct {
	calls, ns, macs, bytes atomic.Int64
}

func (p *primStats) add(start time.Time, macs, floats int) {
	p.ns.Add(int64(time.Since(start)))
	p.calls.Add(1)
	p.macs.Add(int64(macs))
	p.bytes.Add(8 * int64(floats))
}

// timedBackend decorates a kernel.Backend with per-primitive timing. It
// forwards Name, Spec and UsesIm2Col, and every primitive runs on the
// wrapped backend, so evaluation results are unchanged.
type timedBackend struct {
	inner                       kernel.Backend
	conv2d, linear, matmul, col primStats
}

// newTimedBackend wraps k (nil means kernel.Default(), the backend a run
// without a kernel selection resolves to).
func newTimedBackend(k kernel.Backend) *timedBackend {
	if k == nil {
		k = kernel.Default()
	}
	return &timedBackend{inner: k}
}

func (b *timedBackend) Name() string     { return b.inner.Name() }
func (b *timedBackend) Spec() string     { return b.inner.Spec() }
func (b *timedBackend) UsesIm2Col() bool { return b.inner.UsesIm2Col() }

func (b *timedBackend) MatMul(c, x, y *tensor.Tensor, accumulate bool) {
	t := time.Now()
	b.inner.MatMul(c, x, y, accumulate)
	b.matmul.add(t, x.Shape[0]*x.Shape[1]*y.Shape[1], matmulFloats(c, x, y, accumulate))
}

func (b *timedBackend) MatMulTransA(c, x, y *tensor.Tensor, accumulate bool) {
	t := time.Now()
	b.inner.MatMulTransA(c, x, y, accumulate)
	b.matmul.add(t, x.Shape[0]*x.Shape[1]*y.Shape[1], matmulFloats(c, x, y, accumulate))
}

func (b *timedBackend) MatMulTransB(c, x, y *tensor.Tensor, accumulate bool) {
	t := time.Now()
	b.inner.MatMulTransB(c, x, y, accumulate)
	b.matmul.add(t, x.Shape[0]*x.Shape[1]*y.Shape[0], matmulFloats(c, x, y, accumulate))
}

func matmulFloats(c, x, y *tensor.Tensor, accumulate bool) int {
	n := x.Size() + y.Size() + c.Size()
	if accumulate {
		n += c.Size()
	}
	return n
}

func (b *timedBackend) Linear(dst, x, w *tensor.Tensor, bias []float64) {
	t := time.Now()
	b.inner.Linear(dst, x, w, bias)
	b.linear.add(t, x.Shape[0]*w.Shape[0]*w.Shape[1], x.Size()+w.Size()+len(bias)+dst.Size())
}

func (b *timedBackend) Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64) {
	t := time.Now()
	b.inner.Im2Col(g, cols, x)
	b.col.add(t, 0, len(x)+cols.Size())
}

func (b *timedBackend) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor) {
	t := time.Now()
	b.inner.Conv2D(g, outC, dst, x, w, bias, cols)
	b.conv2d.add(t, x.Shape[0]*outC*g.ColRows()*g.ColCols(), x.Size()+w.Size()+len(bias)+dst.Size())
}

// report adds the decorator's per-primitive metrics to m.
func (b *timedBackend) report(m metrics) {
	for _, p := range []struct {
		name string
		s    *primStats
	}{{"conv2d", &b.conv2d}, {"linear", &b.linear}, {"matmul", &b.matmul}, {"im2col", &b.col}} {
		m.set("kernel."+p.name+".calls", float64(p.s.calls.Load()), "count")
		m.set("kernel."+p.name+"_s", time.Duration(p.s.ns.Load()).Seconds(), "s")
		m.set("kernel."+p.name+".gmacs", float64(p.s.macs.Load())/1e9, "GMAC")
		m.set("kernel."+p.name+".mb", float64(p.s.bytes.Load())/1e6, "MB")
	}
	if s := time.Duration(b.conv2d.ns.Load()).Seconds(); s > 0 {
		m.set("kernel.conv2d.gmac_per_s", float64(b.conv2d.macs.Load())/1e9/s, "GMAC/s")
	}
}

// seconds returns the wall time spent inside all primitives.
func (b *timedBackend) seconds() float64 {
	ns := b.conv2d.ns.Load() + b.linear.ns.Load() + b.matmul.ns.Load() + b.col.ns.Load()
	return time.Duration(ns).Seconds()
}
