// Package crossbar implements the resistive crossbar array compute engine of
// §2.1: weight matrices are stored as conductances at the cross points of a
// device array and matrix-vector multiplication happens in the analog domain,
// with DACs driving the word lines and ADCs reading the bit lines.
//
// The engine complements the behavioural weight-noise model in package
// mapping with a structural simulation: weights are bit-sliced across K-bit
// devices in differential pairs (positive/negative columns), inputs are
// quantized by the DAC, each tile computes Σ g·v per column, and the ADC
// quantizes the accumulated currents. The crossbar_inference example
// programs one trained Linear classifier onto an Array, drives the test set
// through MatVec, and shows write-verify closing the gap to the digital
// reference. Accuracy measurements elsewhere read the behavioural model
// (mapping.SyncRead, then a compiled eval plan); the rest of the pipeline
// reads only the tile geometry of Config.
package crossbar

import (
	"fmt"
	"math"

	"swim/internal/device"
	"swim/internal/quant"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// Config describes the crossbar fabric.
type Config struct {
	// TileRows/TileCols bound one physical array (a large weight matrix is
	// partitioned across tiles; 128×128 is a common size in the literature,
	// e.g. ISAAC).
	TileRows, TileCols int
	// DACBits quantizes word-line inputs; ADCBits quantizes column outputs.
	DACBits, ADCBits int
	// Device is the NVM device model used for the stored conductances.
	Device device.Model
}

// DefaultConfig mirrors the paper's setting (K = 4 devices) on 128×128 tiles
// with 6-bit converters.
func DefaultConfig(dev device.Model) Config {
	return Config{TileRows: 128, TileCols: 128, DACBits: 6, ADCBits: 8, Device: dev}
}

// Validate checks the fabric parameters.
func (c Config) Validate() error {
	if c.TileRows < 1 || c.TileCols < 1 {
		return fmt.Errorf("crossbar: bad tile geometry %dx%d", c.TileRows, c.TileCols)
	}
	if c.DACBits < 1 || c.ADCBits < 1 {
		return fmt.Errorf("crossbar: bad converter precision dac=%d adc=%d", c.DACBits, c.ADCBits)
	}
	return c.Device.Validate()
}

// Array is one weight matrix programmed onto crossbar tiles. It stores, for
// every logical weight, the analog conductance of each bit-slice device of
// the differential pair — exactly what a write-verify pass would measure.
type Array struct {
	cfg     Config
	out, in int
	scale   float64
	// conduct[d] holds the per-device analog values for bit-slice d, signed
	// by the differential pair (+g on the positive column, −g on the
	// negative column collapse to one signed number per device).
	conduct [][]float64
	tiles   int
}

// NewArray programs weight matrix w ([out, in]) onto the fabric with
// unverified writes. Use WriteVerify afterwards to refine chosen weights.
// Invalid fabric parameters or a non-matrix weight tensor are reported as
// errors.
func NewArray(cfg Config, w *tensor.Tensor, r *rng.Source) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("crossbar: invalid fabric: %w", err)
	}
	if len(w.Shape) != 2 {
		return nil, fmt.Errorf("crossbar: weights must be rank 2, got shape %v", w.Shape)
	}
	out, in := w.Shape[0], w.Shape[1]
	a := &Array{
		cfg: cfg, out: out, in: in,
		scale: quant.ScaleFor(w, cfg.Device.WeightBits),
	}
	a.tiles = ((out + cfg.TileCols - 1) / cfg.TileCols) * ((in + cfg.TileRows - 1) / cfg.TileRows)
	nd := cfg.Device.NumDevices()
	a.conduct = make([][]float64, nd)
	for d := range a.conduct {
		a.conduct[d] = make([]float64, out*in)
	}
	mags, signs := quant.QuantizeInt(w, a.scale, cfg.Device.WeightBits)
	for i, mag := range mags {
		for d, target := range cfg.Device.SliceMagnitude(mag) {
			a.conduct[d][i] = signs[i] * (float64(target) + r.Gauss(0, cfg.Device.Sigma))
		}
	}
	return a, nil
}

// Tiles returns how many physical tiles the matrix occupies.
func (a *Array) Tiles() int { return a.tiles }

// Shape returns (out, in).
func (a *Array) Shape() (int, int) { return a.out, a.in }

// WriteVerify re-programs logical weight (row, col) with the iterative
// write-verify loop and returns the write cycles spent. The desired level of
// each bit-slice is re-derived from the stored value by rounding: with the
// default σ the write noise is far below half a level, so the recovery is
// exact with overwhelming probability.
func (a *Array) WriteVerify(row, col int, r *rng.Source) int {
	i := row*a.in + col
	total := 0
	single := a.cfg.Device
	single.WeightBits = single.DeviceBits // verify one bit-slice at a time
	for d := range a.conduct {
		sign := 1.0
		if a.conduct[d][i] < 0 {
			sign = -1
		}
		target := math.Round(math.Abs(a.conduct[d][i]))
		res, cycles := single.WriteVerify(int(target), r)
		a.conduct[d][i] = sign * (target + res)
		total += cycles
	}
	return total
}

// MatVec computes y = W·x in the analog domain: the DAC quantizes x, every
// device contributes g·v to its column current, and the ADC quantizes the
// result. Reconstruction weighs slice d by 2^(d·K) and rescales by the
// quantization step.
func (a *Array) MatVec(x []float64) []float64 {
	if len(x) != a.in {
		panic(fmt.Sprintf("crossbar: input length %d, want %d", len(x), a.in))
	}
	xq := make([]float64, a.in)
	a.dacInto(xq, x)
	y := make([]float64, a.out)
	for d, cd := range a.conduct {
		weight := math.Pow(2, float64(d*a.cfg.Device.DeviceBits))
		for o := 0; o < a.out; o++ {
			row := cd[o*a.in : (o+1)*a.in]
			s := 0.0
			for i, v := range xq {
				s += row[i] * v
			}
			y[o] += weight * s
		}
	}
	for o := range y {
		y[o] *= a.scale
	}
	return a.adc(y)
}

// dacInto quantizes the input vector to DACBits uniform levels over its
// range, writing into dst.
func (a *Array) dacInto(dst, x []float64) {
	maxAbs := 0.0
	for _, v := range x {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	if maxAbs == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	levels := float64(int(1)<<a.cfg.DACBits - 1)
	step := maxAbs / levels
	for i, v := range x {
		dst[i] = math.Round(v/step) * step
	}
}

// adc quantizes the output currents to ADCBits uniform levels over range.
func (a *Array) adc(y []float64) []float64 {
	maxAbs := 0.0
	for _, v := range y {
		if m := math.Abs(v); m > maxAbs {
			maxAbs = m
		}
	}
	if maxAbs == 0 {
		return y
	}
	levels := float64(int(1)<<a.cfg.ADCBits - 1)
	step := maxAbs / levels
	for i, v := range y {
		y[i] = math.Round(v/step) * step
	}
	return y
}
