package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swim/internal/data"
	"swim/internal/eval"
	"swim/internal/experiments"
	"swim/internal/mapping"
	"swim/internal/mc"
	"swim/internal/models"
	"swim/internal/nn"
	"swim/internal/program"
	"swim/internal/rng"
	"swim/internal/swim"
	"swim/internal/tensor"
	"swim/internal/train"
)

// tracer accumulates per-layer spans and counts recorded around public
// calls into each module. Trial spans are summed over Monte-Carlo worker
// goroutines, so they add up to busy time, not wall time.
type tracer struct {
	mu sync.Mutex

	// Workload construction (setup path).
	dataGen, trainSGD, trainEval, sensitivity time.Duration

	// Trial composition.
	trial, newTrial, mappingNew, spendVerify, spendInsitu, accuracy time.Duration
	verifyCycles, insituSteps                                       float64
	accuracyCalls, images                                           int

	// Monte-Carlo engine: summed worker capacity (workers × wall) and the
	// wall time after the first worker of each run found no trial left.
	capacity, tail time.Duration

	// Compiled-plan executions, from eval.SetPlanObserver.
	planExecs, planNS atomic.Int64

	kern *timedBackend
}

func newTracer() *tracer { return &tracer{kern: newTimedBackend(nil)} }

// ObservePlan implements eval.PlanObserver.
func (tr *tracer) ObservePlan(_ string, sec float64) {
	tr.planExecs.Add(1)
	tr.planNS.Add(int64(sec * 1e9))
}

func (tr *tracer) add(d *time.Duration, start time.Time) {
	el := time.Since(start)
	tr.mu.Lock()
	*d += el
	tr.mu.Unlock()
}

// setupRecipe is the public-call form of one registry workload build
// (experiments.LeNetMNIST / ResNetCIFAR at SWIM_FAST scale).
type setupRecipe struct {
	data      func() *data.Dataset
	model     func() *nn.Network
	epochs    int
	bits      int
	calN      int
	trainSeed uint64
}

var (
	lenetRecipe = setupRecipe{
		data:   func() *data.Dataset { return data.MNISTLike(600, 300, 1) },
		model:  func() *nn.Network { return models.LeNet(10, 4, rng.New(2)) },
		epochs: 3, bits: 4, calN: 512, trainSeed: 3,
	}
	resnetRecipe = setupRecipe{
		data:   func() *data.Dataset { return data.CIFARLike(300, 150, 21) },
		model:  func() *nn.Network { return models.ResNet18(10, 4, 6, rng.New(22)) },
		epochs: 3, bits: 6, calN: 320, trainSeed: 23,
	}
)

// replaySetup rebuilds a workload through public calls, timing each stage,
// and checks that the result reproduces the registry workload w: the
// sensitivities bit for bit and the clean accuracy exactly.
func (tr *tracer) replaySetup(rc setupRecipe, w *experiments.Workload) error {
	t := time.Now()
	ds := rc.data()
	tr.add(&tr.dataGen, t)
	net := rc.model()
	cfg := train.DefaultConfig()
	cfg.Epochs = rc.epochs
	cfg.LRDecayEvery = rc.epochs / 2
	cfg.QATBits = rc.bits
	t = time.Now()
	train.SGD(net, ds, cfg, rng.New(rc.trainSeed))
	tr.add(&tr.trainSGD, t)
	t = time.Now()
	clean := train.Evaluate(net, ds.TestX, ds.TestY, 64)
	tr.add(&tr.trainEval, t)
	cx, cy := data.Subset(ds.TrainX, ds.TrainY, rc.calN)
	t = time.Now()
	hess := swim.Sensitivity(net, cx, cy, 64)
	tr.add(&tr.sensitivity, t)

	if !sameBits(hess, w.Hess) {
		return fmt.Errorf("setup replay: sensitivities differ from the registry workload's Hess")
	}
	if math.Float64bits(clean) != math.Float64bits(w.CleanAcc) {
		return fmt.Errorf("setup replay: clean accuracy %v differs from the registry's %v", clean, w.CleanAcc)
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// cycleTableSalt is the salt program.Pipeline derives its cycle table
// stream from when no table is injected (seed ^ salt).
const cycleTableSalt = 0x5eed

// replayPipeline runs one sweep pipeline — what experiments.SweepPolicy
// builds with program.New and runs — as the grid trial composed from public
// calls (Policy.NewTrial, mapping.New, Trial.SpendTo, Mapped.Accuracy) on
// mc.RunSeriesCtx, timing every call. Its cells must equal the untraced
// pipeline's bit for bit.
func (tr *tracer) replayPipeline(ctx context.Context, w *experiments.Workload, sigma float64, policy string, cfg experiments.SweepConfig) ([]experiments.Cell, error) {
	pol, err := program.Lookup(policy)
	if err != nil {
		return nil, err
	}
	evalX, evalY := data.Subset(w.DS.TestX, w.DS.TestY, mc.EvalSize(len(w.DS.TestY)))
	env := &program.Env{
		Net: w.Net, Device: w.DeviceFor(sigma), Hess: w.Hess, Weights: w.Weights,
		TrainX: w.DS.TrainX, TrainY: w.DS.TrainY, InSitu: swim.DefaultInSitu(),
	}
	table := env.Device.CycleTable(300, rng.New(cfg.Seed^cycleTableSalt))
	points := len(cfg.NWCs)
	batch := cfg.EvalBatch
	if batch <= 0 {
		batch = 64
	}
	insitu := policy == "insitu"
	workers := mc.Workers()
	var (
		arenas sync.Pool
		spanMu sync.Mutex
		spans  [][2]time.Time
	)

	body := func(r *rng.Source) []float64 {
		start := time.Now()
		out := make([]float64, 3*points)
		t := time.Now()
		trial, err := pol.NewTrial(env, r)
		if err != nil {
			panic(err) // mc reports trial panics as run errors
		}
		tr.add(&tr.newTrial, t)
		t = time.Now()
		mp, err := mapping.New(env.Net, env.Device, table, r)
		if err != nil {
			panic(err)
		}
		tr.add(&tr.mappingNew, t)
		arena, _ := arenas.Get().(*tensor.Arena)
		if arena == nil {
			arena = tensor.NewArena()
		}
		defer arenas.Put(arena)
		mp.SetEvalArena(arena)
		mp.SetKernel(tr.kern)
		for i, nwc := range cfg.NWCs {
			before := mp.CyclesUsed
			t = time.Now()
			trial.SpendTo(mp, nwc, r)
			spent := mp.CyclesUsed - before
			if insitu {
				tr.add(&tr.spendInsitu, t)
			} else {
				tr.add(&tr.spendVerify, t)
			}
			t = time.Now()
			out[i] = mp.Accuracy(evalX, evalY, batch)
			tr.add(&tr.accuracy, t)
			out[points+i] = mp.NWC()
			out[2*points+i] = mp.CyclesUsed

			tr.mu.Lock()
			if insitu {
				// Every in-situ step writes each mapped weight once.
				tr.insituSteps += spent / float64(mp.TotalWeights())
			} else {
				tr.verifyCycles += spent
			}
			tr.accuracyCalls++
			tr.images += len(evalY)
			tr.mu.Unlock()
		}
		end := time.Now()
		tr.mu.Lock()
		tr.trial += end.Sub(start)
		tr.mu.Unlock()
		spanMu.Lock()
		spans = append(spans, [2]time.Time{start, end})
		spanMu.Unlock()
		return out
	}

	eval.SetPlanObserver(tr)
	start := time.Now()
	agg, err := mc.RunSeriesCtx(ctx, cfg.Seed, cfg.Trials, 3*points, workers, body)
	end := time.Now()
	eval.SetPlanObserver(nil)
	if err != nil {
		return nil, err
	}
	tail := tailTime(spans, start, end, workers)
	tr.mu.Lock()
	tr.capacity += time.Duration(workers) * end.Sub(start)
	tr.tail += tail
	tr.mu.Unlock()
	return experiments.WelfordCells(agg[:points]), nil
}

// tailTime returns how long a Monte-Carlo run went on after its first
// worker ran out of trials: the queue empties when the last trial starts,
// and the first trial to end after that frees a worker with nothing left.
// With fewer trials than workers some worker is idle from the start.
func tailTime(spans [][2]time.Time, start, end time.Time, workers int) time.Duration {
	if len(spans) < workers {
		return end.Sub(start)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	lastStart := spans[len(spans)-1][0]
	idle := end
	for _, s := range spans {
		if s[1].After(lastStart) && s[1].Before(idle) {
			idle = s[1]
		}
	}
	return end.Sub(idle)
}

// sweepMetrics reports the setup-path, trial, eval, kernel and mc layers.
func (tr *tracer) sweepMetrics(m metrics) {
	tr.setupMetrics(m)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	m.set("program.trial_s", tr.trial.Seconds(), "s")
	m.set("program.new_trial_s", tr.newTrial.Seconds(), "s")
	m.set("mapping.new_s", tr.mappingNew.Seconds(), "s")
	m.set("program.spend_verify_s", tr.spendVerify.Seconds(), "s")
	m.set("mapping.cycles", tr.verifyCycles, "count")
	if tr.verifyCycles > 0 {
		m.set("device.ns_per_cycle", float64(tr.spendVerify.Nanoseconds())/tr.verifyCycles, "ns")
	}
	m.set("program.spend_insitu_s", tr.spendInsitu.Seconds(), "s")
	m.set("swim.insitu_steps", tr.insituSteps, "count")

	plan := time.Duration(tr.planNS.Load()).Seconds()
	m.set("mapping.accuracy_s", tr.accuracy.Seconds(), "s")
	m.set("mapping.accuracy_calls", float64(tr.accuracyCalls), "count")
	m.set("eval.plan_execs", float64(tr.planExecs.Load()), "count")
	m.set("eval.plan_s", plan, "s")
	if tr.images > 0 {
		m.set("eval.us_per_image", plan/float64(tr.images)*1e6, "us")
	}
	m.set("eval.overhead_s", tr.accuracy.Seconds()-plan, "s")
	m.set("eval.epilogue_s", plan-tr.kern.seconds(), "s")
	if tr.trial > 0 {
		m.set("eval.trial_share", tr.accuracy.Seconds()/tr.trial.Seconds(), "ratio")
		m.set("program.insitu_share", tr.spendInsitu.Seconds()/tr.trial.Seconds(), "ratio")
	}
	tr.kern.report(m)

	if tr.capacity > 0 {
		m.set("mc.busy_frac", tr.trial.Seconds()/tr.capacity.Seconds(), "ratio")
	}
	m.set("mc.tail_s", tr.tail.Seconds(), "s")
}

// setupMetrics reports the setup-path spans.
func (tr *tracer) setupMetrics(m metrics) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	m.set("data.gen_s", tr.dataGen.Seconds(), "s")
	m.set("train.sgd_s", tr.trainSGD.Seconds(), "s")
	m.set("train.evaluate_s", tr.trainEval.Seconds(), "s")
	m.set("swim.sensitivity_s", tr.sensitivity.Seconds(), "s")
}
