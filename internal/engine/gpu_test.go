package engine_test

import (
	"testing"

	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
)

func newGPU(t testing.TB, p *ridge.Problem, form perfmodel.Form, profile perfmodel.GPUProfile, blockSize int, seed uint64) *engine.GPU {
	t.Helper()
	dev := gpusim.NewDevice(profile)
	s, err := engine.NewGPU(ridge.NewLoss(p, form), dev, blockSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGPUPrimalConverges(t *testing.T) {
	p := testProblem(t, 1, 300, 150, 8, 0.01)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 64, 42)
	defer s.Close()
	runEpochs(s, 50)
	if g := s.Gap(); g > 1e-5 {
		t.Fatalf("primal gap after 50 epochs = %v", g)
	}
}

func TestGPUDualConverges(t *testing.T) {
	p := testProblem(t, 2, 250, 150, 8, 0.01)
	s := newGPU(t, p, perfmodel.Dual, perfmodel.GPUTitanX, 64, 42)
	defer s.Close()
	runEpochs(s, 40)
	if g := s.Gap(); g > 1e-5 {
		t.Fatalf("dual gap after 40 epochs = %v", g)
	}
}

// The paper's key single-device claim: TPA-SCD converges per epoch like the
// sequential algorithm (atomic updates keep model and shared vector
// consistent). Compare gap trajectories.
func TestGPUConvergencePerEpochMatchesSequential(t *testing.T) {
	p := testProblem(t, 3, 400, 200, 10, 0.005)
	gpu := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 64, 7)
	defer gpu.Close()
	seq := newSeq(p, perfmodel.Primal, 7)
	for e := 0; e < 25; e++ {
		gpu.RunEpoch()
		seq.RunEpoch()
	}
	gg, gs := gpu.Gap(), seq.Gap()
	if gg > 100*gs+1e-8 {
		t.Fatalf("TPA-SCD per-epoch convergence %v much worse than sequential %v", gg, gs)
	}
}

// Shared vector must remain consistent with the model (unlike wild): after
// training, recomputing Aβ from the model matches the device shared vector.
func TestGPUSharedVectorConsistency(t *testing.T) {
	p := testProblem(t, 4, 200, 100, 8, 0.01)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 32, 3)
	defer s.Close()
	runEpochs(s, 10)
	fresh := make([]float32, p.N)
	p.A.MulVec(fresh, s.Model())
	var drift float64
	for i := range fresh {
		d := float64(fresh[i] - s.SharedVector()[i])
		drift += d * d
	}
	if drift > 1e-6 {
		t.Fatalf("shared vector drift = %v", drift)
	}
}

func TestGPURejectsBadBlockSize(t *testing.T) {
	p := testProblem(t, 5, 50, 30, 4, 0.1)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	if _, err := engine.NewGPU(ridge.NewLoss(p, perfmodel.Primal), dev, 63, 1); err == nil {
		t.Fatal("non-power-of-two block size accepted")
	}
	if _, err := engine.NewGPU(ridge.NewLoss(p, perfmodel.Primal), dev, 0, 1); err == nil {
		t.Fatal("zero block size accepted")
	}
}

func TestGPUOutOfMemory(t *testing.T) {
	p := testProblem(t, 6, 100, 60, 5, 0.1)
	profile := perfmodel.GPUM4000
	profile.MemBytes = 100 // absurdly small
	dev := gpusim.NewDevice(profile)
	if _, err := engine.NewGPU(ridge.NewLoss(p, perfmodel.Primal), dev, 64, 1); err == nil {
		t.Fatal("solver fit into 100 bytes of device memory")
	}
	if dev.Allocated() != 0 {
		t.Fatalf("failed construction leaked %d bytes", dev.Allocated())
	}
}

func TestGPUCloseReleasesMemory(t *testing.T) {
	p := testProblem(t, 7, 100, 60, 5, 0.1)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	s, err := engine.NewGPU(ridge.NewLoss(p, perfmodel.Primal), dev, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Allocated() == 0 {
		t.Fatal("nothing allocated")
	}
	s.Close()
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("Close leaked %d bytes", got)
	}
}

func TestGPUEpochSecondsPositiveAndFasterOnTitanX(t *testing.T) {
	p := testProblem(t, 10, 200, 100, 8, 0.01)
	a := newGPU(t, p, perfmodel.Dual, perfmodel.GPUM4000, 64, 1)
	defer a.Close()
	b := newGPU(t, p, perfmodel.Dual, perfmodel.GPUTitanX, 64, 1)
	defer b.Close()
	if a.EpochSeconds() <= 0 {
		t.Fatal("non-positive epoch time")
	}
	if b.EpochSeconds() >= a.EpochSeconds() {
		t.Fatalf("Titan X (%v) not faster than M4000 (%v)", b.EpochSeconds(), a.EpochSeconds())
	}
}

func TestGPUSolverName(t *testing.T) {
	p := testProblem(t, 12, 40, 20, 3, 0.1)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUTitanX, 32, 1)
	defer s.Close()
	if s.Name() != "TPA-SCD (Titan X)" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestGPUEpochWorkAndStats(t *testing.T) {
	p := testProblem(t, 13, 80, 40, 5, 0.1)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 32, 1)
	defer s.Close()
	nnz, coordsN := s.EpochWork()
	if nnz != int64(p.A.NNZ()) || coordsN != int64(p.M) {
		t.Fatalf("EpochWork = (%d,%d), want (%d,%d)", nnz, coordsN, p.A.NNZ(), p.M)
	}
	s.RunEpoch()
	stats := s.TotalStats()
	if stats.Blocks != int64(p.M) {
		t.Fatalf("blocks = %d, want %d", stats.Blocks, p.M)
	}
	if stats.Elements == 0 || stats.Atomics == 0 {
		t.Fatalf("kernel stats not accumulated: %+v", stats)
	}
}

// partitionIDs returns every third coordinate: a distributed worker's
// share of the problem.
func partitionIDs(n int) []int {
	var ids []int
	for c := 0; c < n; c += 3 {
		ids = append(ids, c)
	}
	return ids
}

func TestGPUPartitionRejectsBadBlockSize(t *testing.T) {
	p := testProblem(t, 5, 50, 30, 4, 0.1)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	l := ridge.NewPartitionLoss(p, perfmodel.Primal, partitionIDs(p.M), 1)
	for _, bs := range []int{63, 0} {
		if _, err := engine.NewGPU(l, dev, bs, 1); err == nil {
			t.Fatalf("block size %d accepted", bs)
		}
	}
	if dev.Allocated() != 0 {
		t.Fatalf("rejected construction holds %d bytes", dev.Allocated())
	}
}

// A partition holding every coordinate at sigma'=1 is the whole problem:
// the kernel over it must converge like the whole-problem solver.
func TestGPUPartitionConverges(t *testing.T) {
	p := testProblem(t, 1, 200, 100, 8, 0.01)
	ids := make([]int, p.M)
	for c := range ids {
		ids[c] = c
	}
	l := ridge.NewPartitionLoss(p, perfmodel.Primal, ids, 1)
	s, err := engine.NewGPU(l, gpusim.NewDevice(perfmodel.GPUM4000), 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runEpochs(s, 50)
	if g := p.GapPrimal(s.Model()); g > 1e-5 {
		t.Fatalf("primal gap after 50 epochs = %v", g)
	}
}

// A partition reserves its own data footprint plus model and shared
// vector, and a failed reservation leaks nothing.
func TestGPUPartitionOutOfMemory(t *testing.T) {
	p := testProblem(t, 6, 100, 60, 5, 0.1)
	l := ridge.NewPartitionLoss(p, perfmodel.Dual, partitionIDs(p.N), 1)
	dev := gpusim.NewDevice(perfmodel.GPUM4000)
	s, err := engine.NewGPU(l, dev, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := l.DataBytes() + 4*int64(l.NumCoords()+l.SharedLen()); dev.Allocated() != want {
		t.Fatalf("partition reserved %d bytes, want %d", dev.Allocated(), want)
	}
	s.Close()

	profile := perfmodel.GPUM4000
	profile.MemBytes = 100 // absurdly small
	small := gpusim.NewDevice(profile)
	if _, err := engine.NewGPU(l, small, 64, 1); err == nil {
		t.Fatal("partition fit into 100 bytes of device memory")
	}
	if small.Allocated() != 0 {
		t.Fatalf("failed construction leaked %d bytes", small.Allocated())
	}
}

// The kernel's work counters per epoch: one block per coordinate, each
// coordinate's non-zeros visited twice (inner product and write-back), and
// one atomic per non-zero plus one model write per coordinate.
func TestGPUEpochStatsCountWork(t *testing.T) {
	p := testProblem(t, 9, 80, 40, 5, 0.1)
	l := ridge.NewPartitionLoss(p, perfmodel.Primal, partitionIDs(p.M), 1)
	s, err := engine.NewGPU(l, gpusim.NewDevice(perfmodel.GPUM4000), 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RunEpoch()
	stats := s.TotalStats()
	num, nnz := int64(l.NumCoords()), l.NNZ()
	if stats.Blocks != num {
		t.Fatalf("blocks = %d, want %d", stats.Blocks, num)
	}
	if stats.Elements != 2*nnz {
		t.Fatalf("elements = %d, want %d", stats.Elements, 2*nnz)
	}
	if stats.Atomics != nnz+num {
		t.Fatalf("atomics = %d, want %d", stats.Atomics, nnz+num)
	}
}

// Model aliases the device-resident weights: writes between epochs are
// what the next kernel launch reads, as a distributed worker relies on.
func TestGPUModelIsInPlace(t *testing.T) {
	p := testProblem(t, 11, 60, 30, 4, 0.1)
	s := newGPU(t, p, perfmodel.Primal, perfmodel.GPUM4000, 32, 1)
	defer s.Close()
	m := s.Model()
	for i := range m {
		m[i] = float32(i) * 0.5
	}
	got := s.Model()
	for i := range got {
		if got[i] != float32(i)*0.5 {
			t.Fatalf("model write lost at %d", i)
		}
	}
	if g, want := s.Gap(), p.GapPrimal(got); g != want {
		t.Fatalf("solver gap %v does not see the written model (%v)", g, want)
	}
}

func BenchmarkGPUEpoch(b *testing.B) {
	p := testProblem(b, 1, 2048, 1024, 16, 0.001)
	s := newGPU(b, p, perfmodel.Primal, perfmodel.GPUM4000, 64, 1)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpoch()
	}
	emitBench(b, "GPUEpoch", nil)
}
