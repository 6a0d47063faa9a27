package eval_test

import (
	"fmt"
	"testing"

	"swim/internal/device"
	"swim/internal/eval"
	"swim/internal/kernel"
	"swim/internal/mapping"
	"swim/internal/models"
	"swim/internal/rng"
)

// scalarRef returns the scalar reference backend, selected by name so the
// pin never compares the default backend against itself.
func scalarRef(t testing.TB) kernel.Backend {
	t.Helper()
	k, err := kernel.Parse("scalar")
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// kernelVariants enumerates every registered backend other than the scalar
// reference, each pinned bit-for-bit against it. The default backend
// (blocked) is among them; the package kernel tests cover its pool and
// inline schedules primitive by primitive.
func kernelVariants(t testing.TB) []kernel.Backend {
	t.Helper()
	var out []kernel.Backend
	for _, name := range kernel.Backends.Names() {
		if name == "scalar" {
			continue
		}
		k, err := kernel.Parse(name)
		if err != nil {
			t.Fatalf("kernel.Parse(%q): %v", name, err)
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		t.Fatal("no non-reference kernel backends registered")
	}
	return out
}

// TestPlanKernelBackendsBitIdentical pins the registry's determinism
// contract at the plan level: for every registered model and every batch
// size (1 exercises single-row paths and the inline schedule, 7 the tile
// tails, 64 the steady state and the pool fan-out), a plan compiled with
// every non-reference backend produces logits bit-identical to scalar.
func TestPlanKernelBackendsBitIdentical(t *testing.T) {
	for _, b := range builders {
		for _, batch := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("%s/batch=%d", b.name, batch), func(t *testing.T) {
				r := rng.New(21)
				net := b.build(r)
				x := randomInput(batch, b.sample, r)

				ref, err := eval.CompileKernel(net, x.Shape, nil, scalarRef(t))
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				want := append([]float64(nil), ref.Forward(x).Data...)

				for _, k := range kernelVariants(t) {
					pl, err := eval.CompileKernel(net, x.Shape, nil, k)
					if err != nil {
						t.Fatalf("CompileKernel(%s): %v", k.Spec(), err)
					}
					got := pl.Forward(x)
					for i := range want {
						if got.Data[i] != want[i] {
							t.Fatalf("backend %s: logit [%d] = %v, scalar %v (not bit-identical)",
								k.Spec(), i, got.Data[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestPlanKernelBackendsAnalogTwin runs the same pin on the crossbar-mapped
// (analog) twin of each model: its MatVec-backed layers bypass the kernel
// tier entirely, so every backend must leave the mapped network's logits
// untouched — compiling with a non-default backend is always safe, digital
// or analog.
func TestPlanKernelBackendsAnalogTwin(t *testing.T) {
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			r := rng.New(23)
			net := b.build(r)
			dm := device.Default(4, 0.5)
			table := dm.CycleTable(50, rng.New(29))
			mp, err := mapping.New(net, dm, table, rng.New(31))
			if err != nil {
				t.Fatalf("mapping.New: %v", err)
			}
			x := randomInput(7, b.sample, r)

			ref, err := eval.CompileKernel(mp.Net, x.Shape, nil, scalarRef(t))
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			want := append([]float64(nil), ref.Forward(x).Data...)

			for _, k := range kernelVariants(t) {
				pl, err := eval.CompileKernel(mp.Net, x.Shape, nil, k)
				if err != nil {
					t.Fatalf("CompileKernel(%s): %v", k.Spec(), err)
				}
				got := pl.Forward(x)
				for i := range want {
					if got.Data[i] != want[i] {
						t.Fatalf("backend %s: analog logit [%d] = %v, scalar %v",
							k.Spec(), i, got.Data[i], want[i])
					}
				}
			}
		})
	}
}

// TestEvaluatorKernelCountsMatch pins the dataset-level walk (full batches
// plus tail batch) across backends: CountCorrect, being a function of
// bit-identical logits, must agree exactly.
func TestEvaluatorKernelCountsMatch(t *testing.T) {
	r := rng.New(37)
	net := models.LeNet(10, 4, r)
	const n = 50 // batch 16 -> three full batches + tail of 2
	x := randomInput(n, []int{1, 28, 28}, r)
	y := make([]int, n)
	for i := range y {
		y[i] = r.Intn(10)
	}
	want, err := eval.NewEvaluatorKernel(net, nil, scalarRef(t)).CountCorrect(x, y, 16)
	if err != nil {
		t.Fatalf("scalar CountCorrect: %v", err)
	}
	for _, k := range kernelVariants(t) {
		got, err := eval.NewEvaluatorKernel(net, nil, k).CountCorrect(x, y, 16)
		if err != nil {
			t.Fatalf("CountCorrect(%s): %v", k.Spec(), err)
		}
		if got != want {
			t.Fatalf("backend %s counted %d correct, scalar %d", k.Spec(), got, want)
		}
	}
}

// TestPlanKernelZeroAlloc extends the zero-allocation pin to every backend:
// blocked re-tiles with stack-resident accumulators and dispatches through
// the persistent shared pool, so it may not allocate in steady state.
func TestPlanKernelZeroAlloc(t *testing.T) {
	for _, b := range builders {
		for _, k := range kernelVariants(t) {
			t.Run(b.name+"/"+k.Spec(), func(t *testing.T) {
				r := rng.New(41)
				net := b.build(r)
				x := randomInput(8, b.sample, r)
				pl, err := eval.CompileKernel(net, x.Shape, nil, k)
				if err != nil {
					t.Fatalf("CompileKernel: %v", err)
				}
				pl.Forward(x) // grow the arena to its fixed point
				if allocs := testing.AllocsPerRun(10, func() { pl.Forward(x) }); allocs != 0 {
					t.Fatalf("Plan.Forward with %s allocates %v times per call, want 0", k.Spec(), allocs)
				}
			})
		}
	}
}
