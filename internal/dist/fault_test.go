package dist

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tpascd/internal/checkpoint"
	"tpascd/internal/cluster"
	"tpascd/internal/engine"
	"tpascd/internal/perfmodel"
)

// A rank killed mid-training must surface from Group.RunEpoch as a typed,
// rank-attributed error — and aborting the round must not leak the
// surviving worker goroutines.
func TestGroupSurfacesChaosKill(t *testing.T) {
	before := runtime.NumGoroutine()
	p := testProblem(t, 1, 300, 150, 8, 0.01)
	cfg := defaultConfig(Averaging)
	// Averaging issues 3 collectives per epoch (reduce, broadcast, one
	// scalar allreduce for the time model), so op 4 is epoch 2's reduce.
	cfg.WrapComm = func(c cluster.Comm) cluster.Comm {
		if c.Rank() != 2 {
			return c
		}
		return cluster.Chaos(c, cluster.ChaosConfig{KillAtOp: 4})
	}
	g, err := NewCPUGroup(p, perfmodel.Dual, 3, engine.DriverSpec{}, perfmodel.CPUSequential, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RunEpoch(); err != nil {
		t.Fatalf("epoch 1 (before the kill): %v", err)
	}
	_, err = g.RunEpoch()
	if err == nil {
		t.Fatal("epoch 2 succeeded despite killed rank")
	}
	var pd *cluster.ErrPeerDown
	if !errors.As(err, &pd) {
		t.Fatalf("got %v (%T), want *cluster.ErrPeerDown in the chain", err, err)
	}
	if pd.Rank != 2 {
		t.Fatalf("failure attributed to rank %d, want 2 (%v)", pd.Rank, err)
	}
	if !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("error %q does not name the failed rank", err)
	}
	g.Close()

	// All worker goroutines must have drained after the abort.
	for i := 0; ; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if i > 50 {
			t.Fatalf("goroutines leaked: %d before, %d after abort", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Injected drops during training must abort the round with an error
// rather than hang or silently corrupt the trajectory.
func TestGroupSurfacesChaosDrop(t *testing.T) {
	p := testProblem(t, 2, 300, 150, 8, 0.01)
	cfg := defaultConfig(Adaptive)
	cfg.WrapComm = func(c cluster.Comm) cluster.Comm {
		if c.Rank() != 1 {
			return c
		}
		return cluster.Chaos(c, cluster.ChaosConfig{Seed: 9, DropProb: 0.2})
	}
	g, err := NewCPUGroup(p, perfmodel.Primal, 3, engine.DriverSpec{}, perfmodel.CPUSequential, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for e := 0; e < 50; e++ {
		if _, err := g.RunEpoch(); err != nil {
			var pd *cluster.ErrPeerDown
			if !errors.As(err, &pd) {
				t.Fatalf("got %v, want *cluster.ErrPeerDown", err)
			}
			if pd.Rank != 1 {
				t.Fatalf("failure attributed to rank %d, want 1", pd.Rank)
			}
			return
		}
	}
	t.Fatal("drop with p=0.2 per collective never fired in 50 epochs")
}

// ResumeFrom is collective: ranks resuming from different epochs is a
// configuration error every rank must detect, not silent divergence.
func TestResumeEpochMismatchDetected(t *testing.T) {
	p := testProblem(t, 3, 200, 100, 8, 0.01)
	g, err := NewCPUGroup(p, perfmodel.Dual, 2, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r, w := range g.Workers {
		wg.Add(1)
		go func(r int, w *Worker) {
			defer wg.Done()
			model, _ := w.Snapshot()
			errs[r] = w.ResumeFrom(model, 3+r) // rank 0 claims epoch 3, rank 1 epoch 4
		}(r, w)
	}
	wg.Wait()
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d accepted mismatched resume epochs", r)
		}
	}
}

// ResumeFrom fast-forwards the permutation stream from its start, so it is
// refused on a worker that has already run rounds — it would skip too far
// and the continued trajectory would silently differ.
func TestResumeRejectsStartedWorker(t *testing.T) {
	p := testProblem(t, 3, 200, 100, 8, 0.01)
	g, err := NewCPUGroup(p, perfmodel.Dual, 2, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	for r, w := range g.Workers {
		model, epoch := w.Snapshot()
		if err := w.ResumeFrom(model, epoch); err == nil || !strings.Contains(err.Error(), "fresh worker") {
			t.Fatalf("rank %d resumed after a round: err = %v", r, err)
		}
	}
}

// Checkpoint/resume round trip: training interrupted at the halfway point,
// checkpointed through the on-disk format, and resumed in a fresh group
// must reach the same duality gap as an uninterrupted run. The shared
// vector is recomputed on resume, so agreement is to float tolerance, not
// bitwise.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	const (
		k     = 3
		mid   = 8
		total = 16
		seed  = 11
	)
	p := testProblem(t, 4, 400, 200, 8, 0.01)
	newGroup := func() *Group {
		g, err := NewCPUGroup(p, perfmodel.Dual, k, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), seed)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	runEpochs := func(g *Group, n int) {
		for e := 0; e < n; e++ {
			if _, err := g.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Uninterrupted reference run.
	ref := newGroup()
	runEpochs(ref, total)
	gapRef, err := ref.Gap()
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Interrupted run: train to mid, checkpoint every rank through the
	// serialized format (epoch/rank/run in the v3 meta block, exactly as
	// distworker stamps real checkpoints), tear the whole group down.
	first := newGroup()
	runEpochs(first, mid)
	blobs := make([][]byte, k)
	for r, w := range first.Workers {
		model, epoch := w.Snapshot()
		if epoch != mid {
			t.Fatalf("rank %d snapshot epoch %d, want %d", r, epoch, mid)
		}
		var buf bytes.Buffer
		c := checkpoint.Checkpoint{Kind: "dist-test", Dim: len(model), Vectors: [][]float32{model}}
		checkpoint.TrainState{Epoch: epoch, Rank: r, Run: "fault-test"}.Stamp(&c)
		if err := checkpoint.Save(&buf, c); err != nil {
			t.Fatal(err)
		}
		blobs[r] = buf.Bytes()
	}
	first.Close()

	// Fresh group, as after a process restart: restore the models
	// collectively (which also fast-forwards each local solver's
	// permutation stream), finish the remaining epochs.
	second := newGroup()
	defer second.Close()
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r, w := range second.Workers {
		wg.Add(1)
		go func(r int, w *Worker) {
			defer wg.Done()
			c, err := checkpoint.Load(bytes.NewReader(blobs[r]), "dist-test")
			if err != nil {
				errs[r] = err
				return
			}
			st, ok, err := checkpoint.TrainStateOf(c)
			if err != nil || !ok {
				errs[r] = fmt.Errorf("train state: ok=%v err=%v", ok, err)
				return
			}
			if st.Rank != r || st.Run != "fault-test" {
				errs[r] = fmt.Errorf("train state %+v, want rank %d run fault-test", st, r)
				return
			}
			errs[r] = w.ResumeFrom(c.Vectors[0], st.Epoch)
		}(r, w)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d resume: %v", r, err)
		}
	}
	runEpochs(second, total-mid)
	gapRes, err := second.Gap()
	if err != nil {
		t.Fatal(err)
	}

	if diff := math.Abs(gapRef - gapRes); diff > 1e-3*math.Abs(gapRef)+1e-12 {
		t.Fatalf("resumed gap %v differs from uninterrupted %v by %v", gapRes, gapRef, diff)
	}
}
