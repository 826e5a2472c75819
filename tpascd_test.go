package tpascd_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"tpascd"
)

func smallProblem(t testing.TB) *tpascd.Problem {
	t.Helper()
	a, y, err := tpascd.GenerateWebspam(tpascd.WebspamConfig{
		N: 800, M: 400, AvgNNZPerRow: 12, Skew: 1, NoiseRate: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tpascd.NewProblem(a, y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQuickstartFlow(t *testing.T) {
	p := smallProblem(t)
	solver := tpascd.NewSequentialSolver(p, tpascd.Primal, 42)
	epochs, gap := tpascd.Train(solver, 60, func(e int, g float64) bool { return g > 1e-6 })
	if gap > 1e-6 {
		t.Fatalf("did not reach 1e-6 in %d epochs: gap=%v", epochs, gap)
	}
	if epochs >= 60 {
		t.Logf("needed all %d epochs (gap %v)", epochs, gap)
	}
}

func TestTrainWithoutCallback(t *testing.T) {
	p := smallProblem(t)
	solver := tpascd.NewSequentialSolver(p, tpascd.Dual, 42)
	epochs, gap := tpascd.Train(solver, 10, nil)
	if epochs != 10 {
		t.Fatalf("epochs = %d", epochs)
	}
	if gap <= 0 {
		t.Fatalf("gap = %v", gap)
	}
}

func TestGPUSolverFlow(t *testing.T) {
	p := smallProblem(t)
	solver, err := tpascd.NewGPUSolver(p, tpascd.Dual, tpascd.TitanX, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer solver.Close()
	_, gap := tpascd.Train(solver, 40, nil)
	if gap > 1e-4 {
		t.Fatalf("GPU solver gap after 40 epochs = %v", gap)
	}
	if solver.EpochSeconds() <= 0 {
		t.Fatal("no modeled epoch time")
	}
}

func TestAsyncSolversThroughFacade(t *testing.T) {
	p := smallProblem(t)
	for _, s := range []tpascd.Solver{
		tpascd.NewAtomicSolver(p, tpascd.Primal, 4, 1),
		tpascd.NewWildSolver(p, tpascd.Primal, 4, 1),
	} {
		_, gap := tpascd.Train(s, 20, nil)
		if gap >= 1 {
			t.Fatalf("%s made no progress: gap %v", s.Name(), gap)
		}
	}
}

func TestCPUClusterFlow(t *testing.T) {
	p := smallProblem(t)
	cfg := tpascd.ClusterConfig{Aggregation: tpascd.Adaptive, Link: tpascd.Link10GbE}
	c, err := tpascd.NewCPUCluster(p, tpascd.Primal, 4, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var total tpascd.Breakdown
	for e := 0; e < 50; e++ {
		bd, err := c.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		total.Add(bd)
	}
	gap, err := c.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if gap > 1e-3 {
		t.Fatalf("cluster gap = %v", gap)
	}
	if total.Total() <= 0 {
		t.Fatal("no simulated time accumulated")
	}
	if c.Gamma() <= 0 {
		t.Fatalf("gamma = %v", c.Gamma())
	}
}

func TestGPUClusterFlow(t *testing.T) {
	p := smallProblem(t)
	cfg := tpascd.ClusterConfig{Aggregation: tpascd.Averaging, Link: tpascd.LinkPCIePeer}
	c, err := tpascd.NewGPUCluster(p, tpascd.Dual, 2, tpascd.M4000, 32, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for e := 0; e < 40; e++ {
		if _, err := c.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	gap, err := c.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if gap > 1e-2 {
		t.Fatalf("GPU cluster gap = %v", gap)
	}
}

// Custom distributed driver over real TCP, through the public API only.
func TestCustomWorkerOverTCP(t *testing.T) {
	p := smallProblem(t)
	const k = 3
	parts := tpascd.PartitionRandom(p.M, k, 99)
	cfg := tpascd.ClusterConfig{Aggregation: tpascd.Adaptive, Link: tpascd.Link10GbE}

	master, addr, err := tpascd.ListenTCP("127.0.0.1:0", k)
	if err != nil {
		t.Fatal(err)
	}
	comms := make([]tpascd.Comm, k)
	comms[0] = master
	var dialWG sync.WaitGroup
	for r := 1; r < k; r++ {
		dialWG.Add(1)
		go func(r int) {
			defer dialWG.Done()
			c, err := tpascd.DialTCP(addr, r, k)
			if err != nil {
				t.Errorf("dial rank %d: %v", r, err)
				return
			}
			comms[r] = c
		}(r)
	}
	dialWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	gaps := make([]float64, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			w, err := tpascd.NewWorker(comms[rank], p, tpascd.Primal, parts[rank], tpascd.DriverSpec{Seed: uint64(rank)}, cfg)
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
				return
			}
			for e := 0; e < 30; e++ {
				if _, err := w.RunEpoch(); err != nil {
					t.Errorf("rank %d epoch %d: %v", rank, e, err)
					return
				}
			}
			g, err := w.Gap()
			if err != nil {
				t.Errorf("rank %d gap: %v", rank, err)
				return
			}
			gaps[rank] = g
		}(r)
	}
	wg.Wait()
	for r := 0; r < k; r++ {
		defer comms[r].Close()
	}
	if t.Failed() {
		t.FailNow()
	}
	for r := 1; r < k; r++ {
		if gaps[r] != gaps[0] {
			t.Fatalf("ranks disagree on the gap: %v vs %v", gaps[r], gaps[0])
		}
	}
	if gaps[0] > 1e-2 {
		t.Fatalf("TCP distributed training made little progress: gap %v", gaps[0])
	}
}

func TestLibSVMRoundTripThroughFacade(t *testing.T) {
	a, y, err := tpascd.GenerateWebspam(tpascd.WebspamConfig{
		N: 50, M: 30, AvgNNZPerRow: 5, Skew: 1, NoiseRate: 0, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tpascd.WriteLibSVM(&buf, a, y); err != nil {
		t.Fatal(err)
	}
	p, err := tpascd.LoadLibSVM(strings.NewReader(buf.String()), a.NumCols, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 50 || p.M != 30 {
		t.Fatalf("round-tripped problem is %dx%d", p.N, p.M)
	}
}

func TestRunFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test skipped in -short mode")
	}
	figs, err := tpascd.RunFigure("4", tpascd.QuickExperimentScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("figure 4 panels = %d", len(figs))
	}
	var buf bytes.Buffer
	if err := figs[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty CSV")
	}
}

func TestFigureIDs(t *testing.T) {
	ids := tpascd.FigureIDs()
	if len(ids) != 9 {
		t.Fatalf("expected 9 reproducible figures, got %v", ids)
	}
}
