package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"swim/internal/experiments"
)

// pipeline is one accuracy-vs-NWC sweep: a (sigma, policy) cell of Table 1
// or one policy curve of Fig. 2, run with the program's default sweep
// configuration unless nwcs/trials override it.
type pipeline struct {
	sigma  float64
	policy string
	seed   uint64
	nwcs   []float64
	trials int
}

func (pl pipeline) config() experiments.SweepConfig {
	cfg := experiments.DefaultSweep()
	cfg.Seed = pl.seed
	cfg.Policies = []string{pl.policy}
	if pl.nwcs != nil {
		cfg.NWCs = pl.nwcs
	}
	if pl.trials > 0 {
		cfg.Trials = pl.trials
	}
	return cfg
}

// resultBytes renders a pipeline's cells exactly (shortest round-trip
// decimal of every mean and std); golden hashes are taken over these bytes.
func (pl pipeline) resultBytes(cells []experiments.Cell) []byte {
	b := fmt.Appendf(nil, "sigma=%s policy=%s seed=%d\n",
		strconv.FormatFloat(pl.sigma, 'g', -1, 64), pl.policy, pl.seed)
	for _, c := range cells {
		b = strconv.AppendFloat(b, c.Mean, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, c.Std, 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}

// checkCells validates a pipeline result that has no golden to compare
// against: one finite cell per NWC point, accuracy within [0, 100].
func checkCells(cells []experiments.Cell, points int) error {
	if len(cells) != points {
		return fmt.Errorf("%d cells for %d NWC points", len(cells), points)
	}
	for i, c := range cells {
		if math.IsNaN(c.Mean) || c.Mean < 0 || c.Mean > 100 || math.IsNaN(c.Std) || c.Std < 0 {
			return fmt.Errorf("cell %d out of range: %v ± %v", i, c.Mean, c.Std)
		}
	}
	return nil
}

// sweepWorkload runs one of the paper's sweep protocols on a registry
// workload. The timed phase is a sequence of units, each a fixed set of
// pipelines, so every run measures the same mix of policies.
type sweepWorkload struct {
	name   string
	build  func() *experiments.Workload
	recipe setupRecipe
	// unit returns the pipelines of unit i at the given seed.
	unit func(seed uint64, i int) []pipeline
	// run executes one pipeline through the protocol's experiments function.
	run func(w *experiments.Workload, pl pipeline) ([]experiments.Cell, error)
	w   *experiments.Workload
}

// unitSeed is the Monte-Carlo seed of unit i; the default seed's first unit
// runs at the program's default sweep seed (1000).
func unitSeed(seed uint64, i int) uint64 { return 1000*seed + uint64(i) }

// newTable1Lenet is the Table 1 protocol through experiments.Table1: each
// unit is one sigma of the grid with all four policies, from the highest
// sigma down (the in-situ policy trains longest there). The order is the
// same at every seed, so runs do the same work and the seed moves only the
// Monte-Carlo streams.
func newTable1Lenet() workload {
	grid := experiments.SigmaGrid()
	return &sweepWorkload{
		name:   "table1-lenet",
		build:  experiments.LeNetMNIST,
		recipe: lenetRecipe,
		unit: func(seed uint64, i int) []pipeline {
			sigma := grid[len(grid)-1-i%len(grid)]
			var pls []pipeline
			for _, p := range experiments.Methods {
				pls = append(pls, pipeline{sigma: sigma, policy: p, seed: unitSeed(seed, i)})
			}
			return pls
		},
		run: func(w *experiments.Workload, pl pipeline) ([]experiments.Cell, error) {
			res, err := experiments.Table1(w, []float64{pl.sigma}, pl.config())
			if err != nil {
				return nil, err
			}
			return res[pl.sigma][pl.policy], nil
		},
	}
}

// fig2Policies are the selector policies of the Fig. 2b workload.
var fig2Policies = []string{"swim", "magnitude", "random"}

// newFig2Resnet is the Fig. 2b protocol through experiments.Fig2 at
// sigma = SigmaHigh: each unit is one selector policy's curve, in a fixed
// order.
func newFig2Resnet() workload {
	return &sweepWorkload{
		name:   "fig2-resnet",
		build:  experiments.ResNetCIFAR,
		recipe: resnetRecipe,
		unit: func(seed uint64, i int) []pipeline {
			p := fig2Policies[i%len(fig2Policies)]
			return []pipeline{{sigma: experiments.SigmaHigh, policy: p, seed: unitSeed(seed, i)}}
		},
		run: func(w *experiments.Workload, pl pipeline) ([]experiments.Cell, error) {
			res, err := experiments.Fig2(w, pl.config())
			if err != nil {
				return nil, err
			}
			return res[pl.policy], nil
		},
	}
}

// warmup is the fixed small pipeline every sweep run executes after set-up
// and before timing; its bytes are checked against a golden on every run.
var warmup = pipeline{sigma: experiments.SigmaHigh, policy: "swim", seed: 1000, nwcs: []float64{0, 0.5}, trials: 2}

func (s *sweepWorkload) setup(context.Context, *tally) error {
	s.w = s.build()
	return nil
}

func (s *sweepWorkload) close() {}

// warm runs the warm-up pipeline and checks it.
func (s *sweepWorkload) warm(t *tally) {
	t.attempt()
	cells, err := s.run(s.w, warmup)
	if err != nil {
		t.fail("warm-up: %v", err)
		return
	}
	checkGolden(t, s.name+"/warmup", warmup.resultBytes(cells))
}

// runUnits runs units for about d, calling each for every pipeline: at
// least one, and as many as end closest to d at the mean unit time so far.
// It returns the wall time of the units run.
func (s *sweepWorkload) runUnits(d time.Duration, seed uint64, each func(i int, pl pipeline) []byte, t *tally) time.Duration {
	start := time.Now()
	for i := 0; ; i++ {
		var unitBytes []byte
		for _, pl := range s.unit(seed, i) {
			unitBytes = append(unitBytes, each(i, pl)...)
		}
		if i == 0 && seed == defaultSeed {
			checkGolden(t, s.name+"/seed1", unitBytes)
		}
		el := time.Since(start)
		if el+el/time.Duration(2*(i+1)) >= d {
			return el
		}
	}
}

func (s *sweepWorkload) measure(_ context.Context, d time.Duration, seed uint64, t *tally) (metrics, error) {
	s.warm(t)
	var lat []float64
	trials, pipes := 0, 0
	wall := s.runUnits(d, seed, func(_ int, pl pipeline) []byte {
		t.attempt()
		start := time.Now()
		cells, err := s.run(s.w, pl)
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
		if err == nil {
			err = checkCells(cells, len(pl.config().NWCs))
		}
		if err != nil {
			t.fail("%s sigma=%g seed=%d: %v", pl.policy, pl.sigma, pl.seed, err)
			return nil
		}
		trials += pl.config().Trials
		pipes++
		return pl.resultBytes(cells)
	}, t)
	fmt.Fprintf(os.Stderr, "  pipeline latencies (ms): %.0f\n", lat)
	m := metrics{}
	m.set("trials_per_s", float64(trials)/wall.Seconds(), "1/s")
	m.set("jobs_per_s", float64(pipes)/wall.Seconds(), "1/s")
	m.set("miss_p50_ms", quantile(lat, 0.5), "ms")
	m.set("miss_p90_ms", quantile(lat, 0.9), "ms")
	return m, nil
}

// trace replays the registry build through public calls, then runs the
// timed units twice per pipeline — untraced through the experiments package
// and traced as the public-call replica — and requires identical results.
func (s *sweepWorkload) trace(ctx context.Context, d time.Duration, seed uint64, t *tally) (metrics, error) {
	tr := newTracer()
	t.attempt()
	if err := tr.replaySetup(s.recipe, s.w); err != nil {
		t.fail("parity: %v; no per-layer numbers reported", err)
		return metrics{}, nil
	}
	var untraced, traced time.Duration
	parity := true
	s.runUnits(d, seed, func(_ int, pl pipeline) []byte {
		t.attempt()
		cfg := pl.config()
		start := time.Now()
		cells, err := s.run(s.w, pl)
		untraced += time.Since(start)
		if err != nil {
			t.fail("%s: %v", pl.policy, err)
			parity = false
			return nil
		}
		start = time.Now()
		rcells, err := tr.replayPipeline(ctx, s.w, pl.sigma, pl.policy, cfg)
		traced += time.Since(start)
		switch {
		case err != nil:
			t.fail("traced %s sigma=%g seed=%d: %v; no per-layer numbers reported", pl.policy, pl.sigma, pl.seed, err)
			parity = false
		case !sameCells(cells, rcells):
			t.fail("parity: traced %s sigma=%g seed=%d differs from the untraced result; no per-layer numbers reported",
				pl.policy, pl.sigma, pl.seed)
			parity = false
		}
		return pl.resultBytes(cells)
	}, t)
	if !parity {
		return metrics{}, nil
	}
	m := metrics{}
	tr.sweepMetrics(m)
	m.set("trace.overhead", traced.Seconds()/untraced.Seconds(), "ratio")
	return m, nil
}

func sameCells(a, b []experiments.Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Mean) != math.Float64bits(b[i].Mean) ||
			math.Float64bits(a[i].Std) != math.Float64bits(b[i].Std) {
			return false
		}
	}
	return true
}
