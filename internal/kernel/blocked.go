package kernel

import (
	"swim/internal/tensor"
)

// blocked is the fast backend and the default. Its matmul kernels compute
// each destination row in register-resident tiles of output columns, with
// the k-loop innermost: every output element still accumulates its k-terms
// in ascending order with the scalar backend's zero-skip, so results are
// bit-identical to scalar, but the partial sums live in registers instead of
// round-tripping through the destination row on every k step, and one loaded
// operand feeds several independent accumulator chains. Its stride-1
// convolution is direct and sparse: an input-stationary walk that reads each
// input pixel once and scatters only the nonzero ones — padding, and the
// exact zeros ReLU and quantization leave in roughly half of every hidden
// feature map, multiply against literal zeros in the lowered matmul and are
// skipped here (a bitwise no-op for finite operands, since an accumulator
// that starts at +0 can never reach -0). Strided convolutions, whose
// scatter touches few outputs per pixel, lower through im2col into the
// register-tiled matmul instead.
//
// Every call splits into independent units — destination rows for the
// matmuls and Linear, batch samples for Conv2D — that the shared pool fans
// across idle cores when it is free (see dispatch); otherwise the units run
// inline, with identical results.
type blocked struct{}

var _ Backend = blocked{}

// Name implements Backend.
func (blocked) Name() string { return "blocked" }

// Spec implements Backend.
func (blocked) Spec() string { return "blocked" }

// UsesIm2Col implements Backend: the blocked convolution consumes the cols
// workspace — as the im2col lowering of strided convolutions, and otherwise
// as the packing panel its register tiles read weights from.
func (blocked) UsesIm2Col() bool { return true }

// MatMul implements Backend.
func (blocked) MatMul(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulDims(c, a, b)
	dispatch(&pjob{kind: jobMatMul, units: m, cd: c.Data, ad: a.Data, bd: b.Data, m: m, k: k, n: n, acc: accumulate}, m*k*n)
}

// MatMulTransA implements Backend.
func (blocked) MatMulTransA(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulTransADims(c, a, b)
	dispatch(&pjob{kind: jobTransA, units: m, cd: c.Data, ad: a.Data, bd: b.Data, m: m, k: k, n: n, acc: accumulate}, m*k*n)
}

// MatMulTransB implements Backend.
func (blocked) MatMulTransB(c, a, b *tensor.Tensor, accumulate bool) {
	m, k, n := matMulTransBDims(c, a, b)
	dispatch(&pjob{kind: jobTransB, units: m, cd: c.Data, ad: a.Data, bd: b.Data, m: m, k: k, n: n, acc: accumulate}, m*k*n)
}

// Linear implements Backend.
func (blocked) Linear(dst, x, w *tensor.Tensor, bias []float64) {
	linearCheck(dst, x, w, bias)
	m, k := x.Shape[0], x.Shape[1]
	n := w.Shape[0]
	dispatch(&pjob{kind: jobLinear, units: m, cd: dst.Data, ad: x.Data, bd: w.Data, bias: bias, m: m, k: k, n: n}, m*k*n)
}

// Im2Col implements Backend by delegating to the tensor lowering.
func (blocked) Im2Col(g tensor.Conv2DGeom, cols *tensor.Tensor, x []float64) {
	g.Im2ColInto(cols, x)
}

// Conv2D implements Backend, choosing the loop from the geometry. Strided
// convolutions lower each sample through im2col into cols and run the
// register-tiled matmul over output-channel rows, then add the bias — the
// scalar sequence element for element. All others run the sparse direct
// convolution in output-channel tiles: each tile's weight rows are
// transposed once into a p-major panel carved from cols — one pack
// amortized over every sample of the batch — and each sample makes an
// input-stationary pass that skips its exactly-zero activations. A panel of
// lanes channels needs lanes·ColRows floats, so tiles are at most ColCols
// channels wide. Both paths are bit-identical to scalar.
func (blocked) Conv2D(g tensor.Conv2DGeom, outC int, dst, x, w *tensor.Tensor, bias []float64, cols *tensor.Tensor) {
	conv2DCheck(g, outC, dst, x, w, bias)
	if g.Stride > 1 {
		convLowered(g, outC, dst.Data, x.Data, w.Data, bias, cols)
		return
	}
	b := x.Shape[0]
	kr, hw := g.ColRows(), g.ColCols()
	j := pjob{kind: jobConvTile, units: b, cd: dst.Data, ad: x.Data, bd: w.Data, bias: bias, g: g, outC: outC, pk: cols.Data}
	for oc := 0; oc < outC; oc += j.lanes {
		j.oc, j.lanes = oc, tileLanes(min(outC-oc, hw))
		if j.lanes > 1 {
			packPanel(w.Data[oc*kr:(oc+j.lanes)*kr], kr, j.lanes, j.pk)
		}
		dispatch(&j, b*j.lanes*kr*hw)
	}
}

// convLowered is the strided convolution: per sample, im2col into the cols
// workspace, then out = w·cols through the register-tiled matmul rows (the
// scalar conv's weight zero-skip and ascending-p order per element), with
// the bias broadcast over spatial positions after every k-sum is complete.
func convLowered(g tensor.Conv2DGeom, outC int, dst, x, wd, bias []float64, cols *tensor.Tensor) {
	kr, hw := g.ColRows(), g.ColCols()
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := outC * hw
	b := len(x) / sampleIn
	for bi := 0; bi < b; bi++ {
		g.Im2ColInto(cols, x[bi*sampleIn:(bi+1)*sampleIn])
		dispatch(&pjob{kind: jobMatMul, units: outC, cd: dst[bi*sampleOut : (bi+1)*sampleOut],
			ad: wd, bd: cols.Data, m: outC, k: kr, n: hw}, outC*kr*hw)
	}
	for bi := 0; bi < b; bi++ {
		for oc, bv := range bias {
			seg := dst[bi*sampleOut+oc*hw : bi*sampleOut+(oc+1)*hw]
			for i := range seg {
				seg[i] += bv
			}
		}
	}
}

// packPanel transposes lanes weight rows (each kr long) into the p-major
// panel wpk[p*lanes+l], so a register tile's inner loop loads its lane
// weights from consecutive memory.
func packPanel(wt []float64, kr, lanes int, wpk []float64) {
	for l := 0; l < lanes; l++ {
		wrow := wt[l*kr : (l+1)*kr]
		for p, wv := range wrow {
			wpk[p*lanes+l] = wv
		}
	}
}

// matMulDims validates C = A·B shapes and returns (m, k, n).
func matMulDims(c, a, b *tensor.Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("kernel: MatMul requires rank-2 operands")
	}
	m, k = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("kernel: MatMul shape mismatch")
	}
	return m, k, n
}

// matMulTransADims validates C = Aᵀ·B shapes and returns (m, k, n).
func matMulTransADims(c, a, b *tensor.Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("kernel: MatMulTransA requires rank-2 operands")
	}
	k, m = a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("kernel: MatMulTransA shape mismatch")
	}
	return m, k, n
}

// matMulTransBDims validates C = A·Bᵀ shapes and returns (m, k, n).
func matMulTransBDims(c, a, b *tensor.Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("kernel: MatMulTransB requires rank-2 operands")
	}
	m, k = a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic("kernel: MatMulTransB shape mismatch")
	}
	return m, k, n
}

// matMulRowBlocked computes one row of C = A·B (crow = arow·B), eight output
// columns per register tile, k innermost with the scalar zero-skip. bd is
// the k×n right-hand matrix, flat.
func matMulRowBlocked(crow, arow, bd []float64, k, n int, accumulate bool) {
	j := 0
	for ; j+8 <= n; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if accumulate {
			s0, s1, s2, s3 = crow[j], crow[j+1], crow[j+2], crow[j+3]
			s4, s5, s6, s7 = crow[j+4], crow[j+5], crow[j+6], crow[j+7]
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			bq := bd[p*n+j : p*n+j+8]
			s0 += av * bq[0]
			s1 += av * bq[1]
			s2 += av * bq[2]
			s3 += av * bq[3]
			s4 += av * bq[4]
			s5 += av * bq[5]
			s6 += av * bq[6]
			s7 += av * bq[7]
		}
		crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		crow[j+4], crow[j+5], crow[j+6], crow[j+7] = s4, s5, s6, s7
	}
	for ; j < n; j++ {
		s := 0.0
		if accumulate {
			s = crow[j]
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			s += av * bd[p*n+j]
		}
		crow[j] = s
	}
}

// matMulTransARowBlocked computes row i of C = Aᵀ·B, reading column i of the
// k×m matrix A. Same tiling and element-level term order as the plain kernel.
func matMulTransARowBlocked(crow, ad []float64, i, m int, bd []float64, k, n int, accumulate bool) {
	j := 0
	for ; j+8 <= n; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		if accumulate {
			s0, s1, s2, s3 = crow[j], crow[j+1], crow[j+2], crow[j+3]
			s4, s5, s6, s7 = crow[j+4], crow[j+5], crow[j+6], crow[j+7]
		}
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			bq := bd[p*n+j : p*n+j+8]
			s0 += av * bq[0]
			s1 += av * bq[1]
			s2 += av * bq[2]
			s3 += av * bq[3]
			s4 += av * bq[4]
			s5 += av * bq[5]
			s6 += av * bq[6]
			s7 += av * bq[7]
		}
		crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		crow[j+4], crow[j+5], crow[j+6], crow[j+7] = s4, s5, s6, s7
	}
	for ; j < n; j++ {
		s := 0.0
		if accumulate {
			s = crow[j]
		}
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			s += av * bd[p*n+j]
		}
		crow[j] = s
	}
}

// matMulTransBRowBlocked computes one row of C = A·Bᵀ: four dot products at
// a time against consecutive rows of B, giving four independent accumulator
// chains where the scalar kernel has one. Each dot product runs in the same
// ascending-k order (and, like the scalar kernel, without a zero-skip).
func matMulTransBRowBlocked(crow, arow, bd []float64, k, n int, accumulate bool) {
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := bd[j*k : (j+1)*k]
		b1 := bd[(j+1)*k : (j+2)*k]
		b2 := bd[(j+2)*k : (j+3)*k]
		b3 := bd[(j+3)*k : (j+4)*k]
		var s0, s1, s2, s3 float64
		for p, av := range arow {
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		if accumulate {
			crow[j] += s0
			crow[j+1] += s1
			crow[j+2] += s2
			crow[j+3] += s3
		} else {
			crow[j] = s0
			crow[j+1] = s1
			crow[j+2] = s2
			crow[j+3] = s3
		}
	}
	for ; j < n; j++ {
		brow := bd[j*k : (j+1)*k]
		s := 0.0
		for p, av := range arow {
			s += av * brow[p]
		}
		if accumulate {
			crow[j] += s
		} else {
			crow[j] = s
		}
	}
}

// linearRowBlocked is matMulTransBRowBlocked with the bias folded into the
// final store and a zero-skip on the input activation: every dot product
// starts from +0 and can never become -0, so dropping the av == 0 terms
// (about half of a post-ReLU, post-quantization feature vector) only ever
// skips adding ±0 — bitwise the scalar fused Linear for finite inputs.
func linearRowBlocked(crow, arow, wd, bias []float64, k, n int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := wd[j*k : (j+1)*k]
		b1 := wd[(j+1)*k : (j+2)*k]
		b2 := wd[(j+2)*k : (j+3)*k]
		b3 := wd[(j+3)*k : (j+4)*k]
		var s0, s1, s2, s3 float64
		for p, av := range arow {
			if av == 0 {
				continue
			}
			s0 += av * b0[p]
			s1 += av * b1[p]
			s2 += av * b2[p]
			s3 += av * b3[p]
		}
		crow[j] = s0 + bias[j]
		crow[j+1] = s1 + bias[j+1]
		crow[j+2] = s2 + bias[j+2]
		crow[j+3] = s3 + bias[j+3]
	}
	for ; j < n; j++ {
		brow := wd[j*k : (j+1)*k]
		s := 0.0
		for p, av := range arow {
			if av == 0 {
				continue
			}
			s += av * brow[p]
		}
		crow[j] = s + bias[j]
	}
}

// tileLanes returns the width of the next output-channel tile when rem
// channels remain: eight while they last, then one tile each of four, two
// and one for the remainder.
func tileLanes(rem int) int {
	switch {
	case rem >= 8:
		return 8
	case rem >= 4:
		return 4
	case rem >= 2:
		return 2
	}
	return 1
}

// convTile runs the scatter kernel for one tile of lanes output channels of
// one sample: out holds the tile's channels, wpk its packed panel, and wrow
// the first channel's unpacked weight row (read by the one-lane kernel,
// which needs no panel).
func convTile(g tensor.Conv2DGeom, lanes int, out, xs, wpk, wrow, bias []float64) {
	hw := g.OutH * g.OutW
	switch lanes {
	case 8:
		convSP8(g, out, xs, wpk, bias, hw)
	case 4:
		convSP4(g, out, xs, wpk, bias, hw)
	case 2:
		convSP2(g, out, xs, wpk, bias, hw)
	default:
		convSP1(g, out, xs, wrow, bias[0], hw)
	}
}

// outSpan returns the inclusive output-coordinate range [lo, hi] reached by
// padded input coordinate v (= in + pad) through a stride-1 kernel of extent
// k over n outputs: output o covers v via kernel offset v-o, valid when that
// offset lies in [0, k). Iterating o from hi down to lo walks the kernel
// offsets in ascending order, which is what keeps per-element accumulation in
// im2col row order. An empty range comes back with lo > hi.
func outSpan(v, k, n int) (lo, hi int) {
	lo, hi = max(v-k+1, 0), min(v, n-1)
	return lo, hi
}

// convSP8 computes eight output channels of one sample's convolution from the
// p-major packed panel wpk (wpk[p*8+l] is lane l's weight at kernel position
// p), walking the *input* instead of the output: each input pixel is loaded
// and tested once and — when nonzero — scattered through every kernel
// position it feeds, eight channel lanes per position. Zero pixels cost one
// compare: padding never enters the loops at all, and the post-ReLU /
// post-quantization zeros that make up roughly half of every hidden feature
// map skip kh·kw·8 multiply-adds per compare, so the (unpredictable) branch
// is amortized instead of paying a misprediction per kernel position the way
// an output-stationary skip does. For any fixed output element the visits
// arrive in ascending (c, ii, jj) — which is ascending im2col p order — each
// adding one term to an accumulator that starts at +0 and can never become
// -0, so after the trailing bias pass the result is bitwise the im2col +
// matmul + bias sequence for finite inputs. Stride 1 only: Conv2D lowers
// strided convolutions through im2col instead.
func convSP8(g tensor.Conv2DGeom, out, xs, wpk, bias []float64, hw int) {
	for i := range out {
		out[i] = 0
	}
	o0, o1, o2, o3 := out[0*hw:1*hw], out[1*hw:2*hw], out[2*hw:3*hw], out[3*hw:4*hw]
	o4, o5, o6, o7 := out[4*hw:5*hw], out[5*hw:6*hw], out[6*hw:7*hw], out[7*hw:8*hw]
	ihw := g.InH * g.InW
	kw8 := g.KW * 8
	for c := 0; c < g.InC; c++ {
		plane := xs[c*ihw : (c+1)*ihw]
		cbase := c * g.KH * kw8
		for ii := 0; ii < g.InH; ii++ {
			a := ii + g.Pad
			oiMin, oiMax := outSpan(a, g.KH, g.OutH)
			if oiMax < oiMin {
				continue
			}
			row := plane[ii*g.InW : (ii+1)*g.InW]
			for jj, xv := range row {
				if xv == 0 {
					continue
				}
				b := jj + g.Pad
				ojMin, ojMax := outSpan(b, g.KW, g.OutW)
				if ojMax < ojMin {
					continue
				}
				// Within one pixel's scatter every output element
				// receives exactly one term, so the walk order over
				// (oi, oj) is bitwise irrelevant — free rein to pair
				// adjacent output pixels: their kernel offsets are
				// adjacent too, so one sixteen-wide panel load feeds
				// both and the loop overhead halves.
				for oi := oiMax; oi >= oiMin; oi-- {
					wb := cbase + (a-oi)*kw8 + (b-ojMax)*8
					q := oi*g.OutW + ojMax
					oj := ojMax
					for ; oj > ojMin; oj -= 2 {
						wq := wpk[wb : wb+16]
						o0[q] += wq[0] * xv
						o1[q] += wq[1] * xv
						o2[q] += wq[2] * xv
						o3[q] += wq[3] * xv
						o4[q] += wq[4] * xv
						o5[q] += wq[5] * xv
						o6[q] += wq[6] * xv
						o7[q] += wq[7] * xv
						o0[q-1] += wq[8] * xv
						o1[q-1] += wq[9] * xv
						o2[q-1] += wq[10] * xv
						o3[q-1] += wq[11] * xv
						o4[q-1] += wq[12] * xv
						o5[q-1] += wq[13] * xv
						o6[q-1] += wq[14] * xv
						o7[q-1] += wq[15] * xv
						wb += 16
						q -= 2
					}
					for ; oj >= ojMin; oj-- {
						wq := wpk[wb : wb+8]
						o0[q] += wq[0] * xv
						o1[q] += wq[1] * xv
						o2[q] += wq[2] * xv
						o3[q] += wq[3] * xv
						o4[q] += wq[4] * xv
						o5[q] += wq[5] * xv
						o6[q] += wq[6] * xv
						o7[q] += wq[7] * xv
						wb += 8
						q--
					}
				}
			}
		}
	}
	for l, bv := range bias {
		seg := out[l*hw : (l+1)*hw]
		for q := range seg {
			seg[q] += bv
		}
	}
}

// convSP4 is convSP8 at four packed lanes, covering the narrow models (the
// CIFAR ResNet's early stages run four channels total).
func convSP4(g tensor.Conv2DGeom, out, xs, wpk, bias []float64, hw int) {
	for i := range out {
		out[i] = 0
	}
	o0, o1, o2, o3 := out[0*hw:1*hw], out[1*hw:2*hw], out[2*hw:3*hw], out[3*hw:4*hw]
	ihw := g.InH * g.InW
	kw4 := g.KW * 4
	for c := 0; c < g.InC; c++ {
		plane := xs[c*ihw : (c+1)*ihw]
		cbase := c * g.KH * kw4
		for ii := 0; ii < g.InH; ii++ {
			a := ii + g.Pad
			oiMin, oiMax := outSpan(a, g.KH, g.OutH)
			if oiMax < oiMin {
				continue
			}
			row := plane[ii*g.InW : (ii+1)*g.InW]
			for jj, xv := range row {
				if xv == 0 {
					continue
				}
				b := jj + g.Pad
				ojMin, ojMax := outSpan(b, g.KW, g.OutW)
				if ojMax < ojMin {
					continue
				}
				for oi := oiMax; oi >= oiMin; oi-- {
					wb := cbase + (a-oi)*kw4 + (b-ojMax)*4
					q := oi*g.OutW + ojMax
					oj := ojMax
					for ; oj > ojMin; oj -= 2 {
						wq := wpk[wb : wb+8]
						o0[q] += wq[0] * xv
						o1[q] += wq[1] * xv
						o2[q] += wq[2] * xv
						o3[q] += wq[3] * xv
						o0[q-1] += wq[4] * xv
						o1[q-1] += wq[5] * xv
						o2[q-1] += wq[6] * xv
						o3[q-1] += wq[7] * xv
						wb += 8
						q -= 2
					}
					for ; oj >= ojMin; oj-- {
						wq := wpk[wb : wb+4]
						o0[q] += wq[0] * xv
						o1[q] += wq[1] * xv
						o2[q] += wq[2] * xv
						o3[q] += wq[3] * xv
						wb += 4
						q--
					}
				}
			}
		}
	}
	for l, bv := range bias {
		seg := out[l*hw : (l+1)*hw]
		for q := range seg {
			seg[q] += bv
		}
	}
}

// convSP2 is convSP8 at two packed lanes, for the channel-count remainders.
func convSP2(g tensor.Conv2DGeom, out, xs, wpk, bias []float64, hw int) {
	for i := range out {
		out[i] = 0
	}
	o0, o1 := out[0*hw:1*hw], out[1*hw:2*hw]
	ihw := g.InH * g.InW
	kw2 := g.KW * 2
	for c := 0; c < g.InC; c++ {
		plane := xs[c*ihw : (c+1)*ihw]
		cbase := c * g.KH * kw2
		for ii := 0; ii < g.InH; ii++ {
			a := ii + g.Pad
			oiMin, oiMax := outSpan(a, g.KH, g.OutH)
			if oiMax < oiMin {
				continue
			}
			row := plane[ii*g.InW : (ii+1)*g.InW]
			for jj, xv := range row {
				if xv == 0 {
					continue
				}
				b := jj + g.Pad
				ojMin, ojMax := outSpan(b, g.KW, g.OutW)
				if ojMax < ojMin {
					continue
				}
				for oi := oiMax; oi >= oiMin; oi-- {
					wkbase := cbase + (a-oi)*kw2
					obase := oi * g.OutW
					for oj := ojMax; oj >= ojMin; oj-- {
						q := obase + oj
						wb := wkbase + (b-oj)*2
						wq := wpk[wb : wb+2]
						o0[q] += wq[0] * xv
						o1[q] += wq[1] * xv
					}
				}
			}
		}
	}
	for l, bv := range bias {
		seg := out[l*hw : (l+1)*hw]
		for q := range seg {
			seg[q] += bv
		}
	}
}

// convSP1 is the single-channel remainder of the output-channel tiling: the
// same input-stationary scatter, reading the channel's weight row in place —
// at one lane there is nothing for packing to make contiguous.
func convSP1(g tensor.Conv2DGeom, out, xs, wrow []float64, bv float64, hw int) {
	for i := range out {
		out[i] = 0
	}
	ihw := g.InH * g.InW
	for c := 0; c < g.InC; c++ {
		plane := xs[c*ihw : (c+1)*ihw]
		cbase := c * g.KH * g.KW
		for ii := 0; ii < g.InH; ii++ {
			a := ii + g.Pad
			oiMin, oiMax := outSpan(a, g.KH, g.OutH)
			if oiMax < oiMin {
				continue
			}
			row := plane[ii*g.InW : (ii+1)*g.InW]
			for jj, xv := range row {
				if xv == 0 {
					continue
				}
				b := jj + g.Pad
				ojMin, ojMax := outSpan(b, g.KW, g.OutW)
				if ojMax < ojMin {
					continue
				}
				for oi := oiMax; oi >= oiMin; oi-- {
					wkbase := cbase + (a-oi)*g.KW
					obase := oi * g.OutW
					for oj := ojMax; oj >= ojMin; oj-- {
						out[obase+oj] += wrow[wkbase+b-oj] * xv
					}
				}
			}
		}
	}
	for q := range out {
		out[q] += bv
	}
}
