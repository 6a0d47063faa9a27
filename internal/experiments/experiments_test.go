package experiments

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"

	"swim/internal/mc"
	"swim/internal/program"
)

func TestMain(m *testing.M) {
	// Experiments tests exercise the full pipeline at CI scale.
	os.Setenv("SWIM_FAST", "1")
	os.Setenv("SWIM_MC", "3")
	os.Exit(m.Run())
}

func TestLeNetWorkloadBuildsOnceAndTrains(t *testing.T) {
	w1 := LeNetMNIST()
	w2 := LeNetMNIST()
	if w1 != w2 {
		t.Fatal("workload registry did not cache")
	}
	if w1.CleanAcc < 50 {
		t.Fatalf("fast LeNet clean accuracy %.1f%% too low to be a trained model", w1.CleanAcc)
	}
	if len(w1.Hess) != w1.Net.NumMappedWeights() {
		t.Fatal("sensitivity length mismatch")
	}
}

func TestSweepRejectsUnknownPolicy(t *testing.T) {
	w := LeNetMNIST()
	cfg := SweepConfig{NWCs: []float64{0}, Trials: 2, Seed: 8}
	if _, err := Sweep(w, SigmaHigh, "bogus", cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSweepShapesAndMonotoneTrend(t *testing.T) {
	w := LeNetMNIST()
	cfg := SweepConfig{NWCs: []float64{0, 0.3, 1.0}, Trials: 3, Seed: 9}
	cells, err := Sweep(w, SigmaHigh, "swim", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	// Write-verifying more weights must not make things dramatically worse:
	// final point should be at least the unverified point.
	if cells[2].Mean < cells[0].Mean-1.0 {
		t.Fatalf("NWC=1 accuracy (%.2f) far below NWC=0 (%.2f)", cells[2].Mean, cells[0].Mean)
	}
	for _, c := range cells {
		if c.Mean < 0 || c.Mean > 100 || c.Std < 0 {
			t.Fatalf("bad cell %+v", c)
		}
	}
}

func TestSweepInSitu(t *testing.T) {
	w := LeNetMNIST()
	cfg := SweepConfig{NWCs: []float64{0, 0.2}, Trials: 2, Seed: 10}
	cells, err := Sweep(w, SigmaHigh, "insitu", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
}

// TestSweepWorkerInvariance pins the end-to-end determinism guarantee: a
// full device-programming sweep yields bit-identical cells whatever the
// worker count.
func TestSweepWorkerInvariance(t *testing.T) {
	w := LeNetMNIST()
	cfg := SweepConfig{NWCs: []float64{0, 0.5}, Trials: 4, Seed: 90}
	defer mc.SetWorkers(0)
	mc.SetWorkers(1)
	serial, err := Sweep(w, SigmaHigh, "swim", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{3, runtime.NumCPU()} {
		mc.SetWorkers(workers)
		cells, err := Sweep(w, SigmaHigh, "swim", cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cells {
			if cells[i] != serial[i] {
				t.Fatalf("workers=%d cell %d: %+v != serial %+v", workers, i, cells[i], serial[i])
			}
		}
	}
}

func TestTable1AndPrint(t *testing.T) {
	w := LeNetMNIST()
	cfg := SweepConfig{NWCs: []float64{0, 1.0}, Trials: 2, Seed: 11}
	res, err := Table1(w, []float64{SigmaTypical}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[SigmaTypical]) != len(Methods) {
		t.Fatal("table shape wrong")
	}
	var buf bytes.Buffer
	PrintTable1(&buf, w, []float64{SigmaTypical}, cfg, res)
	if buf.Len() == 0 || !bytes.Contains(buf.Bytes(), []byte("swim")) {
		t.Fatal("print produced nothing useful")
	}
}

func TestFig1Correlations(t *testing.T) {
	w := LeNetMNIST()
	cfg := Fig1Config{NumWeights: 24, Repeats: 3, SigmaPerturb: 3, EvalN: 120, Seed: 12}
	res, err := Fig1(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Drop) != 24 {
		t.Fatalf("drops = %d", len(res.Drop))
	}
	if res.PearsonHess < -1 || res.PearsonHess > 1 {
		t.Fatalf("pearson out of range: %v", res.PearsonHess)
	}
	var buf bytes.Buffer
	PrintFig1(&buf, w, cfg, res)
	if !bytes.Contains(buf.Bytes(), []byte("Pearson")) {
		t.Fatal("fig1 print missing correlations")
	}
}

// TestFig1RejectsDegenerateConfig pins the up-front refusal of settings that
// would crash (an empty evaluation set) or print a meaningless number (no
// repeats averages to a 0 mean, one weight has no correlation).
func TestFig1RejectsDegenerateConfig(t *testing.T) {
	w := &Workload{Name: "stub"} // refused before the workload is touched
	for _, tc := range []struct {
		name string
		edit func(*Fig1Config)
		want string
	}{
		{"zero eval", func(c *Fig1Config) { c.EvalN = 0 }, "evaluation subset"},
		{"negative eval", func(c *Fig1Config) { c.EvalN = -5 }, "evaluation subset"},
		{"zero repeats", func(c *Fig1Config) { c.Repeats = 0 }, "repeats"},
		{"zero weights", func(c *Fig1Config) { c.NumWeights = 0 }, "at least 2 weights"},
		{"one weight", func(c *Fig1Config) { c.NumWeights = 1 }, "at least 2 weights"},
		{"negative weights", func(c *Fig1Config) { c.NumWeights = -3 }, "at least 2 weights"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultFig1()
			tc.edit(&cfg)
			if _, err := Fig1(w, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Fig1 error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

func TestFig2Panel(t *testing.T) {
	w := ConvNetCIFAR()
	cfg := SweepConfig{NWCs: []float64{0, 1.0}, Trials: 2, Seed: 13}
	res, err := Fig2(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Methods) {
		t.Fatal("missing methods")
	}
	var buf bytes.Buffer
	PrintFig2(&buf, w, cfg, res)
	if !bytes.Contains(buf.Bytes(), []byte("insitu")) {
		t.Fatal("fig2 print missing methods")
	}
}

func TestSpeedupAt(t *testing.T) {
	nwcs := []float64{0, 0.1, 0.5, 1.0}
	swimC := []Cell{{90, 0}, {97, 0}, {98, 0}, {98, 0}}
	rival := []Cell{{90, 0}, {92, 0}, {96, 0}, {97.5, 0}}
	// SWIM reaches 97 at NWC 0.1; rival never reaches 97 within grid -> 10x.
	if s := SpeedupAt(swimC, rival, nwcs, 0.1); s != 10 {
		t.Fatalf("speedup = %v, want 10", s)
	}
	rival2 := []Cell{{90, 0}, {92, 0}, {97.2, 0}, {98, 0}}
	if s := SpeedupAt(swimC, rival2, nwcs, 0.1); s != 5 {
		t.Fatalf("speedup = %v, want 5", s)
	}
}

func TestAblateGranularity(t *testing.T) {
	w := LeNetMNIST()
	pol, err := program.Lookup("swim")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AblateGranularity(w, pol, SigmaHigh, 5.0, []float64{0.05, 0.25}, ReadScenario{}, 2, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("rows missing")
	}
	var buf bytes.Buffer
	PrintGranularity(&buf, w, 5.0, rows)
	if buf.Len() == 0 {
		t.Fatal("granularity print empty")
	}
}

func TestAblateTieBreak(t *testing.T) {
	w := LeNetMNIST()
	res, err := AblateTieBreak(w, SigmaHigh, 0.1, ReadScenario{}, 2, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.TiedFraction < 0 || res.TiedFraction > 1 {
		t.Fatalf("tied fraction %v", res.TiedFraction)
	}
}

func TestAblateDeviceBits(t *testing.T) {
	w := LeNetMNIST()
	pol, err := program.Lookup("swim")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AblateDeviceBits(w, pol, SigmaTypical, 0.1, []int{2, 4}, ReadScenario{}, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatal("rows missing")
	}
	if rows[0].Devices <= rows[1].Devices {
		t.Fatalf("K=2 should need more devices than K=4: %+v", rows)
	}
	var buf bytes.Buffer
	PrintKBits(&buf, w, "swim", SigmaTypical, 0.1, rows)
	if buf.Len() == 0 {
		t.Fatal("kbits print empty")
	}
}

func TestHessianQuality(t *testing.T) {
	w := LeNetMNIST()
	rho := HessianQuality(w, 12, 17)
	if rho < -1 || rho > 1 {
		t.Fatalf("spearman %v out of range", rho)
	}
}
