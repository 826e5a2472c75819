package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"syscall"
	"time"

	"tpascd/internal/cluster"
	"tpascd/internal/datasets"
	"tpascd/internal/dist"
	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/sparse"
)

// The training problem: a webspam-like ridge regression, sized so the
// matrix (stored twice, by rows and by columns) is about 16 MB — far
// beyond one core's L2 — and so the sequential solver needs a dozen-plus
// epochs to the primal target.
const (
	dataN       = 24576
	dataM       = 12288
	dataNNZ     = 40
	dataSkew    = 1.0
	dataNoise   = 0.05
	ridgeLambda = 1e-3

	// epochCap bounds every solve; a phase that reaches it uncertified
	// is a failed operation.
	epochCap = 400
	// cocoaDrift is the share by which CoCoA's recomputed gap may exceed
	// the target it stopped on.
	cocoaDrift = 0.01
)

// Gap targets per form. The single-machine solvers share a form's
// target; CoCoA's dual converges sublinearly on this problem (its gap
// shrinks ~7% per round near 1e-4 and stalls below 1e-5), so it gets a
// looser dual target of its own rather than a minutes-long run.
var targets = map[perfmodel.Form]map[string]float64{
	perfmodel.Primal: {"seq": 3e-6, "syscd": 3e-6, "tpascd": 3e-6, "cocoa": 3e-6},
	perfmodel.Dual:   {"seq": 4e-7, "syscd": 4e-7, "tpascd": 4e-7, "cocoa": 1e-4},
}

// solverNames are the four solvers run per form, in order, under their
// metric names.
var solverNames = []string{"seq", "syscd", "tpascd", "cocoa"}

// gated names the solvers whose CPU time to target is an end-to-end
// metric. The syscd solves run in traced runs only and are reported per
// layer: on two cores their epoch count swings with thread interleaving
// (13 to 32 dual epochs on one problem), and the median of a run's
// solves is not steady enough across runs to gate on.
var gated = map[string]bool{"seq": true, "tpascd": true, "cocoa": true}

// repSeed seeds the solver streams of training rep i. It does not depend
// on the benchmark seed: every run solves the same problems with the
// same streams, so the solve metrics differ between runs only by how
// fast the machine did the work, not by how many epochs a draw of seeds
// happened to need (CoCoA's primal round count ranges from 19 to 109
// over solver seeds).
func repSeed(i int) uint64 { return uint64(i+1) * 1000003 }

func formName(f perfmodel.Form) string {
	if f == perfmodel.Dual {
		return "dual"
	}
	return "primal"
}

// generateData builds the training set: one webspam-like matrix from
// the generator's fixed default seed. It is the same for every benchmark
// seed, which drives the serving corpus and arrival schedule instead; a
// fresh matrix per seed moved the sequential primal solve between 12 and
// 17 epochs, and a seeded example order moved the dual CoCoA partitions
// and with them its round count.
func generateData() (*sparse.CSR, []float32, error) {
	return datasets.Webspam(datasets.WebspamConfig{
		N: dataN, M: dataM, AvgNNZPerRow: dataNNZ, Skew: dataSkew, NoiseRate: dataNoise,
		Seed: datasets.WebspamDefault().Seed,
	})
}

// phase is one solve from scratch to its form's certified target.
type phase struct {
	form    perfmodel.Form
	solver  string
	wall    time.Duration // solver construction to Train's return
	cpu     time.Duration // process CPU time over the same span
	epochs  int
	gap     float64 // honest recompute after training
	target  float64
	ok      bool
	model   []float32 // final model (primal seq only, for serving)
	layers  map[string]float64
	residue float64 // traced: |wall - attributed parts| / wall
}

// timedSolver decorates an engine.Solver, timing every RunEpoch and Gap
// call engine.Train makes into it.
type timedSolver struct {
	engine.Solver
	epoch, gap   time.Duration
	nEpoch, nGap int
}

func (t *timedSolver) RunEpoch() {
	t0 := time.Now()
	t.Solver.RunEpoch()
	t.epoch += time.Since(t0)
	t.nEpoch++
}

func (t *timedSolver) Gap() float64 {
	t0 := time.Now()
	g := t.Solver.Gap()
	t.gap += time.Since(t0)
	t.nGap++
	return g
}

// groupSolver presents an in-process CoCoA group as an engine.Solver so
// engine.Train drives rounds and the per-round collective gap exactly as
// it drives the single-machine solvers. The first error sticks: later
// rounds are skipped and Gap reports +Inf.
type groupSolver struct {
	g      *dist.Group
	form   perfmodel.Form
	comms  []*countingComm
	err    error
	rounds int
	gamma  float64 // sum over rounds
	wait   time.Duration
	calls  int64
	bytes  int64
}

func (s *groupSolver) RunEpoch() {
	if s.err != nil {
		return
	}
	w0, c0, b0 := s.commTotals()
	_, s.err = s.g.RunEpoch()
	w1, c1, b1 := s.commTotals()
	s.wait += w1 - w0
	s.calls += c1 - c0
	s.bytes += b1 - b0
	s.rounds++
	s.gamma += s.g.Gamma()
}

func (s *groupSolver) commTotals() (wait time.Duration, calls, bytes int64) {
	for _, c := range s.comms {
		wait += time.Duration(c.wait.Load())
		calls += c.calls.Load()
		bytes += c.bytes.Load()
	}
	return
}

func (s *groupSolver) Gap() float64 {
	if s.err != nil {
		return math.Inf(1)
	}
	g, err := s.g.Gap()
	if err != nil {
		s.err = err
		return math.Inf(1)
	}
	return g
}

func (s *groupSolver) Model() []float32               { return nil }
func (s *groupSolver) SharedVector() []float32        { return nil }
func (s *groupSolver) Form() perfmodel.Form           { return s.form }
func (s *groupSolver) Name() string                   { return "CoCoA" }
func (s *groupSolver) EpochWork() (nnz, coords int64) { return 0, 0 }

// countingComm wraps one rank's communicator, counting collective calls
// and payload bytes and timing how long the rank spends inside them.
type countingComm struct {
	cluster.Comm
	wait, calls, bytes atomic.Int64
}

func (c *countingComm) note(t0 time.Time, n int64) {
	c.wait.Add(int64(time.Since(t0)))
	c.calls.Add(1)
	c.bytes.Add(n)
}

func (c *countingComm) Broadcast(buf []float32, root int) error {
	t0 := time.Now()
	err := c.Comm.Broadcast(buf, root)
	c.note(t0, 4*int64(len(buf)))
	return err
}

func (c *countingComm) Reduce(in, out []float32, root int) error {
	t0 := time.Now()
	err := c.Comm.Reduce(in, out, root)
	c.note(t0, 4*int64(len(in)))
	return err
}

func (c *countingComm) Allreduce(in, out []float32) error {
	t0 := time.Now()
	err := c.Comm.Allreduce(in, out)
	c.note(t0, 4*int64(len(in)))
	return err
}

func (c *countingComm) AllreduceScalars(vals []float64) ([]float64, error) {
	t0 := time.Now()
	out, err := c.Comm.AllreduceScalars(vals)
	c.note(t0, 8*int64(len(vals)))
	return out, err
}

func (c *countingComm) Barrier() error {
	t0 := time.Now()
	err := c.Comm.Barrier()
	c.note(t0, 0)
	return err
}

// runPhase solves p in the given form with one solver from scratch and
// certifies the result. threads sizes syscd and the CoCoA group. With
// traced set, the per-layer parts are recorded and checked to add up to
// the phase's wall time.
func runPhase(p *ridge.Problem, form perfmodel.Form, solver string, threads int, seed uint64, traced bool) (phase, error) {
	ph := phase{form: form, solver: solver, target: targets[form][solver]}
	keepGoing := func(_ int, gap float64) bool { return gap > ph.target }

	t0 := time.Now()
	c0 := cpuNow()
	var (
		s      engine.Solver
		gpu    *engine.GPU
		group  *groupSolver
		closer func()
		err    error
	)
	switch solver {
	case "seq":
		s, err = engine.NewSolver(ridge.NewLoss(p, form), engine.DriverSpec{Name: engine.DriverSequential, Seed: seed})
	case "syscd":
		s, err = engine.NewSolver(ridge.NewLoss(p, form), engine.DriverSpec{Name: engine.DriverSyscd, Threads: threads, Seed: seed})
	case "tpascd":
		s, err = engine.NewSolver(ridge.NewLoss(p, form), engine.DriverSpec{
			Name: engine.DriverGPU, Seed: seed, Device: gpusim.NewDevice(perfmodel.GPUM4000),
		})
		if err == nil {
			gpu = s.(*engine.GPU)
			closer = gpu.Close
		}
	case "cocoa":
		group = &groupSolver{form: form}
		cfg := dist.Config{Aggregation: dist.Adaptive}
		if traced {
			cfg.WrapComm = func(c cluster.Comm) cluster.Comm {
				cc := &countingComm{Comm: c}
				group.comms = append(group.comms, cc)
				return cc
			}
		}
		group.g, err = dist.NewCPUGroup(p, form, threads, engine.DriverSpec{}, perfmodel.CPUSequential, cfg, seed)
		if err == nil {
			s, closer = group, group.g.Close
		}
	default:
		err = fmt.Errorf("unknown solver %q", solver)
	}
	if err != nil {
		return ph, err
	}
	if closer != nil {
		defer closer()
	}
	construct := time.Since(t0)

	base := s
	var ts *timedSolver
	if traced {
		ts = &timedSolver{Solver: s}
		s = ts
	}
	ph.epochs, _ = engine.Train(s, epochCap, 0, keepGoing)
	ph.wall = time.Since(t0)
	ph.cpu = cpuNow() - c0

	// Certify with an honest recompute from the model alone.
	switch {
	case group != nil:
		if group.err != nil {
			return ph, group.err
		}
		ph.gap = globalGap(p, form, group.g, seed)
	default:
		ph.gap = base.Gap()
	}
	ph.ok = ph.gap <= ph.target
	if group != nil {
		// The workers stop on the collective gap, computed from their
		// maintained float32 shared vectors; the recomputed certificate
		// differs from it by that drift (within ±0.5% at these targets).
		ph.ok = ph.gap <= ph.target*(1+cocoaDrift)
	}
	if form == perfmodel.Primal && solver == "seq" {
		ph.model = append([]float32(nil), base.Model()...)
	}

	if traced {
		ph.layers = phaseLayers(ph, ts, gpu, group)
		attributed := construct + ts.epoch + ts.gap
		ph.residue = math.Abs(float64(ph.wall-attributed)) / float64(ph.wall)
	}
	return ph, nil
}

// globalGap reassembles the CoCoA group's distributed model and computes
// the duality gap from it with the problem's own certificate, which
// recomputes the shared vector instead of trusting the workers' copies.
func globalGap(p *ridge.Problem, form perfmodel.Form, g *dist.Group, seed uint64) float64 {
	n := p.M
	if form == perfmodel.Dual {
		n = p.N
	}
	// NewCPUGroup cuts the coordinates with this exact call.
	parts := dist.PartitionRandom(n, g.Size(), seed)
	model := make([]float32, n)
	for r, w := range g.Workers {
		for j, c := range parts[r] {
			model[c] = w.Model()[j]
		}
	}
	if form == perfmodel.Dual {
		return p.GapDual(model)
	}
	return p.GapPrimal(model)
}

// phaseLayers names the traced per-layer figures of one phase.
func phaseLayers(ph phase, ts *timedSolver, gpu *engine.GPU, group *groupSolver) map[string]float64 {
	f := formName(ph.form)
	out := map[string]float64{}
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	if group != nil {
		r := float64(max(group.rounds, 1))
		k := float64(max(len(group.comms), 1))
		waitPerRound := ms(group.wait) / k / r
		out["dist.round."+f+".ms"] = per(ts.epoch, ts.nEpoch)
		out["dist.local."+f+".ms"] = per(ts.epoch, ts.nEpoch) - waitPerRound
		out["dist.gap."+f+".ms"] = per(ts.gap, ts.nGap)
		out["dist.rounds."+f] = float64(group.rounds)
		out["dist.gamma."+f+".mean"] = group.gamma / r
		out["cluster.wait."+f+".ms_per_round"] = waitPerRound
		out["cluster.bytes."+f+".per_round"] = float64(group.bytes) / k / r
		out["cluster.calls."+f+".per_round"] = float64(group.calls) / k / r
		return out
	}
	d := ph.solver
	out["engine.epoch."+f+"."+d+".ms"] = per(ts.epoch, ts.nEpoch)
	out["engine.gap."+f+"."+d+".ms"] = per(ts.gap, ts.nGap)
	out["engine.epochs."+f+"."+d] = float64(ts.nEpoch)
	if gpu != nil {
		st := gpu.TotalStats()
		e := float64(max(ts.nEpoch, 1))
		out["gpusim."+f+".elements_per_epoch"] = float64(st.Elements) / e
		out["gpusim."+f+".atomics_per_epoch"] = float64(st.Atomics) / e
		out["gpusim."+f+".modeled_epoch_ms"] = gpu.EpochSeconds() * 1000
	}
	return out
}

// cpuNow is the CPU time the process has used, user plus system. The
// kernel leaves out time the hypervisor stole from the virtual CPU, so
// on a shared virtual machine it measures the program's work where wall
// time also measures the neighbours' load. On a two-core shared virtual
// machine, five runs of the same code spread the median wall-clock
// primal CoCoA solve over 0.95–1.54 s and its CPU time over 1.29–1.44 s.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
