package dist

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tpascd/internal/engine"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

func testProblem(t testing.TB, seed uint64, n, m, nnzPerRow int, lambda float64) *ridge.Problem {
	t.Helper()
	r := rng.New(seed)
	coo := sparse.NewCOO(n, m, n*nnzPerRow)
	for i := 0; i < n; i++ {
		for k := 0; k < nnzPerRow; k++ {
			coo.Append(i, r.Intn(m), float32(r.NormFloat64()))
		}
	}
	y := make([]float32, n)
	for i := range y {
		y[i] = float32(r.NormFloat64())
	}
	p, err := ridge.NewProblem(coo.ToCSR(), y, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func defaultConfig(agg Aggregation) Config {
	return Config{Aggregation: agg, Link: perfmodel.Link10GbE}
}

func TestPartitionContiguous(t *testing.T) {
	p := PartitionContiguous(10, 3)
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("parts = %d", len(p))
	}
	// sizes within 1 of each other
	for _, part := range p {
		if len(part) < 3 || len(part) > 4 {
			t.Fatalf("unbalanced: %v", p)
		}
	}
}

func TestPartitionRandomProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%100 + 1
		k := int(kRaw)%8 + 1
		p := PartitionRandom(n, k, seed)
		return p.Validate(n) == nil && len(p) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionValidateCatchesErrors(t *testing.T) {
	if err := (Partition{{0, 1}, {1, 2}}).Validate(3); err == nil {
		t.Fatal("double assignment accepted")
	}
	if err := (Partition{{0}, {2}}).Validate(3); err == nil {
		t.Fatal("missing id accepted")
	}
	if err := (Partition{{0, 5}}).Validate(3); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

// A single distributed worker with averaging (γ=1) must converge exactly
// like the non-distributed sequential algorithm.
func TestSingleWorkerMatchesSequential(t *testing.T) {
	p := testProblem(t, 1, 200, 100, 8, 0.01)
	g, err := NewCPUGroup(p, perfmodel.Primal, 1, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for e := 0; e < 40; e++ {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	gap, err := g.Gap()
	if err != nil {
		t.Fatal(err)
	}
	seq := engine.NewSequential(ridge.NewLoss(p, perfmodel.Primal), 5)
	for e := 0; e < 40; e++ {
		seq.RunEpoch()
	}
	gs := seq.Gap()
	if gap > 100*gs+1e-8 {
		t.Fatalf("K=1 distributed gap %v far from sequential %v", gap, gs)
	}
}

// The distributed gap must agree with the honest centralized gap computed
// from the assembled global model.
func TestDistributedGapMatchesCentralized(t *testing.T) {
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		p := testProblem(t, 2, 120, 80, 6, 0.02)
		g, err := NewCPUGroup(p, form, 4, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 7)
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < 10; e++ {
			if _, err := g.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		distGap, err := g.Gap()
		if err != nil {
			t.Fatal(err)
		}
		// Assemble the global model from the workers' partitions.
		numCoords := p.M
		if form == perfmodel.Dual {
			numCoords = p.N
		}
		parts := PartitionRandom(numCoords, 4, 7)
		global := make([]float32, numCoords)
		for rank, w := range g.Workers {
			for li, gi := range parts[rank] {
				global[gi] = w.Model()[li]
			}
		}
		var centralGap float64
		if form == perfmodel.Primal {
			centralGap = p.GapPrimal(global)
		} else {
			centralGap = p.GapDual(global)
		}
		if math.Abs(distGap-centralGap) > 1e-5*(1+centralGap) {
			t.Fatalf("%v: distributed gap %v vs centralized %v", form, distGap, centralGap)
		}
		g.Close()
	}
}

func TestDistributedConvergesPrimal(t *testing.T) {
	p := testProblem(t, 3, 200, 120, 8, 0.01)
	g, err := NewCPUGroup(p, perfmodel.Primal, 4, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 11)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for e := 0; e < 150; e++ {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	gap, err := g.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if gap > 1e-4 {
		t.Fatalf("distributed primal gap after 150 epochs = %v", gap)
	}
}

func TestDistributedConvergesDual(t *testing.T) {
	p := testProblem(t, 4, 200, 120, 8, 0.01)
	g, err := NewCPUGroup(p, perfmodel.Dual, 4, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 11)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for e := 0; e < 200; e++ {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	gap, err := g.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if gap > 1e-4 {
		t.Fatalf("distributed dual gap after 200 epochs = %v", gap)
	}
}

// More workers converge slower per epoch (the paper's Fig. 3 observation).
func TestMoreWorkersSlowerPerEpoch(t *testing.T) {
	p := testProblem(t, 5, 300, 150, 8, 0.005)
	gapAfter := func(k, epochs int) float64 {
		g, err := NewCPUGroup(p, perfmodel.Primal, k, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 13)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		for e := 0; e < epochs; e++ {
			if _, err := g.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		gap, err := g.Gap()
		if err != nil {
			t.Fatal(err)
		}
		return gap
	}
	g1 := gapAfter(1, 20)
	g8 := gapAfter(8, 20)
	if g8 <= g1 {
		t.Fatalf("8 workers (%v) should converge slower per epoch than 1 (%v)", g8, g1)
	}
}

// Adaptive aggregation converges at least as fast per epoch as averaging
// (Fig. 4) at convergence depth.
func TestAdaptiveBeatsAveragingPrimal(t *testing.T) {
	p := testProblem(t, 6, 300, 150, 8, 0.005)
	run := func(agg Aggregation, epochs int) float64 {
		g, err := NewCPUGroup(p, perfmodel.Primal, 8, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(agg), 17)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		for e := 0; e < epochs; e++ {
			if _, err := g.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		gap, err := g.Gap()
		if err != nil {
			t.Fatal(err)
		}
		return gap
	}
	const epochs = 60
	avg := run(Averaging, epochs)
	adp := run(Adaptive, epochs)
	if adp >= avg {
		t.Fatalf("adaptive gap %v not better than averaging %v after %d epochs", adp, avg, epochs)
	}
}

// The optimal γ must actually minimize the primal objective over γ: no
// sampled alternative may do better (validates eq. 7 as derived).
func TestAdaptiveGammaIsOptimalPrimal(t *testing.T) {
	p := testProblem(t, 7, 150, 90, 6, 0.01)
	const k = 4
	g, err := NewCPUGroup(p, perfmodel.Primal, k, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Adaptive), 19)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	parts := PartitionRandom(p.M, k, 19)

	for e := 0; e < 5; e++ {
		// Snapshot global state before the epoch.
		prevGlobal := make([]float32, p.M)
		for rank, w := range g.Workers {
			for li, gi := range parts[rank] {
				prevGlobal[gi] = w.Model()[li]
			}
		}
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		gamma := g.Gamma()
		// Reconstruct the (unscaled) model delta: γ·Δβ is applied, so
		// Δβ = (new − prev)/γ.
		newGlobal := make([]float32, p.M)
		for rank, w := range g.Workers {
			for li, gi := range parts[rank] {
				newGlobal[gi] = w.Model()[li]
			}
		}
		if gamma == 0 {
			t.Fatal("gamma = 0")
		}
		deltaGlobal := make([]float32, p.M)
		for j := range deltaGlobal {
			deltaGlobal[j] = (newGlobal[j] - prevGlobal[j]) / float32(gamma)
		}
		valueAt := func(gm float64) float64 {
			trial := make([]float32, p.M)
			for j := range trial {
				trial[j] = prevGlobal[j] + float32(gm)*deltaGlobal[j]
			}
			return p.PrimalValue(trial)
		}
		best := valueAt(gamma)
		for _, off := range []float64{-0.2, -0.05, 0.05, 0.2} {
			if v := valueAt(gamma + off); v < best-1e-7*(1+math.Abs(best)) {
				t.Fatalf("epoch %d: γ=%v not optimal: P(γ%+.2f)=%v < P(γ)=%v", e, gamma, off, v, best)
			}
		}
	}
}

// Same optimality check for the dual γ̄ (validates the corrected
// denominator N‖Δα‖²; see DESIGN.md).
func TestAdaptiveGammaIsOptimalDual(t *testing.T) {
	p := testProblem(t, 8, 120, 90, 6, 0.01)
	const k = 4
	g, err := NewCPUGroup(p, perfmodel.Dual, k, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Adaptive), 23)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	parts := PartitionRandom(p.N, k, 23)
	for e := 0; e < 5; e++ {
		prevGlobal := make([]float32, p.N)
		for rank, w := range g.Workers {
			for li, gi := range parts[rank] {
				prevGlobal[gi] = w.Model()[li]
			}
		}
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		gamma := g.Gamma()
		newGlobal := make([]float32, p.N)
		for rank, w := range g.Workers {
			for li, gi := range parts[rank] {
				newGlobal[gi] = w.Model()[li]
			}
		}
		deltaGlobal := make([]float32, p.N)
		for j := range deltaGlobal {
			deltaGlobal[j] = (newGlobal[j] - prevGlobal[j]) / float32(gamma)
		}
		valueAt := func(gm float64) float64 {
			trial := make([]float32, p.N)
			for j := range trial {
				trial[j] = prevGlobal[j] + float32(gm)*deltaGlobal[j]
			}
			return p.DualValue(trial)
		}
		best := valueAt(gamma)
		for _, off := range []float64{-0.2, -0.05, 0.05, 0.2} {
			if v := valueAt(gamma + off); v > best+1e-7*(1+math.Abs(best)) {
				t.Fatalf("epoch %d: γ̄=%v not optimal: D(γ%+.2f)=%v > D(γ)=%v", e, gamma, off, v, best)
			}
		}
	}
}

// γ* converges to a value above 1/K (Fig. 5 observation).
func TestGammaSettlesAboveAveraging(t *testing.T) {
	p := testProblem(t, 9, 250, 120, 8, 0.01)
	const k = 8
	g, err := NewCPUGroup(p, perfmodel.Primal, k, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Adaptive), 29)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var last float64
	for e := 0; e < 40; e++ {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		last = g.Gamma()
	}
	if last <= 1.0/float64(k) {
		t.Fatalf("settled γ = %v not above 1/K = %v", last, 1.0/float64(k))
	}
}

func TestRunEpochBreakdown(t *testing.T) {
	p := testProblem(t, 10, 150, 80, 6, 0.01)
	g, err := NewCPUGroup(p, perfmodel.Primal, 4, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 31)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	bd, err := g.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if bd.HostComp <= 0 {
		t.Fatalf("CPU local solver must account host compute: %+v", bd)
	}
	if bd.GPUComp != 0 || bd.PCIe != 0 {
		t.Fatalf("CPU group must not account GPU/PCIe time: %+v", bd)
	}
	if bd.Network <= 0 {
		t.Fatalf("multi-worker round must account network time: %+v", bd)
	}
}

func TestGPUGroupConvergesAndAccountsTime(t *testing.T) {
	p := testProblem(t, 11, 200, 120, 8, 0.01)
	g, err := NewGPUGroup(p, perfmodel.Dual, 4, perfmodel.GPUM4000, 32, defaultConfig(Averaging), 37)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var bd perfmodel.Breakdown
	for e := 0; e < 150; e++ {
		b, err := g.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		bd.Add(b)
	}
	gap, err := g.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if gap > 1e-4 {
		t.Fatalf("GPU group gap after 150 epochs = %v", gap)
	}
	if bd.GPUComp <= 0 || bd.PCIe <= 0 || bd.Network <= 0 {
		t.Fatalf("incomplete breakdown: %+v", bd)
	}
}

// Each GPU worker stages the shared vector off and back onto its device
// once per round over the configured PCIe link; nothing else crosses it.
func TestGPUGroupPCIeStaging(t *testing.T) {
	p := testProblem(t, 8, 100, 60, 5, 0.1)
	cfg := defaultConfig(Averaging)
	cfg.PCIe = perfmodel.Link{Name: "test link", LatencySec: 1e-3, BytesPerSec: 1e6}
	g, err := NewGPUGroup(p, perfmodel.Dual, 2, perfmodel.GPUM4000, 32, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	bd, err := g.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * cfg.PCIe.TransferSeconds(int64(p.M)*4) // dual shared vector has M entries
	if math.Abs(bd.PCIe-want) > 1e-12 {
		t.Fatalf("PCIe per round = %v, want %v", bd.PCIe, want)
	}
}

func TestGroupSizeValidation(t *testing.T) {
	p := testProblem(t, 12, 50, 30, 4, 0.1)
	if _, err := NewCPUGroup(p, perfmodel.Primal, 0, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Averaging), 1); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestAggregationString(t *testing.T) {
	if Averaging.String() != "averaging" || Adaptive.String() != "adaptive" {
		t.Fatal("Aggregation.String broken")
	}
}

func TestWildLocalSolverGroup(t *testing.T) {
	p := testProblem(t, 13, 300, 80, 16, 0.005)
	g, err := NewCPUGroup(p, perfmodel.Dual, 2, engine.DriverSpec{Name: engine.DriverWild, Threads: 8}, perfmodel.CPUWild16, defaultConfig(Averaging), 41)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for e := 0; e < 30; e++ {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	gap, err := g.Gap()
	if err != nil {
		t.Fatal(err)
	}
	// Wild locals still reach a useful solution even if the gap floors.
	if math.IsNaN(gap) || gap > 1 {
		t.Fatalf("wild-local distributed run diverged: gap = %v", gap)
	}
}

// A syscd-local distributed run must match the sequential-local gap floor:
// the replica/merge scheme loses no updates, so unlike wild the only
// slowdown is the aggregation's own γ damping, same as sequential locals.
func TestSyscdLocalSolverGroup(t *testing.T) {
	p := testProblem(t, 14, 300, 80, 16, 0.005)
	run := func(spec engine.DriverSpec) float64 {
		g, err := NewCPUGroup(p, perfmodel.Dual, 2, spec, perfmodel.CPUWild16,
			defaultConfig(Averaging), 43)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		for e := 0; e < 40; e++ {
			if _, err := g.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		gap, err := g.Gap()
		if err != nil {
			t.Fatal(err)
		}
		return gap
	}
	seq := run(engine.DriverSpec{})
	sys := run(engine.DriverSpec{Name: engine.DriverSyscd, Threads: 4})
	if math.IsNaN(sys) || sys > 2*seq {
		t.Fatalf("syscd-local gap %v does not match sequential-local floor %v", sys, seq)
	}
}

// The locals take their vocabulary from the engine registry: unknown names,
// and tpa-scd in a CPU group (no device), must be rejected at construction.
func TestCPULocalRejectsUnknownAndGPUDrivers(t *testing.T) {
	p := testProblem(t, 15, 40, 20, 4, 0.1)
	if _, err := NewCPUGroup(p, perfmodel.Primal, 2, engine.DriverSpec{Name: "hogwild"},
		perfmodel.CPUSequential, defaultConfig(Averaging), 1); err == nil {
		t.Fatal("unknown driver accepted")
	}
	if _, err := NewCPUGroup(p, perfmodel.Primal, 2, engine.DriverSpec{Name: engine.DriverGPU},
		perfmodel.CPUSequential, defaultConfig(Averaging), 1); err == nil {
		t.Fatal("tpa-scd accepted as a CPU local")
	}
}

func BenchmarkDistributedEpochK4(b *testing.B) {
	p := testProblem(b, 1, 2048, 1024, 16, 0.001)
	g, err := NewCPUGroup(p, perfmodel.Primal, 4, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Adaptive), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// The "adding" aggregation (γ=1) is valid for K=1 and must then match
// averaging exactly; for larger K on correlated data it is aggressive and
// may overshoot — we only require it not to produce NaNs.
func TestAddingAggregation(t *testing.T) {
	p := testProblem(t, 14, 150, 80, 6, 0.01)
	g, err := NewCPUGroup(p, perfmodel.Primal, 4, engine.DriverSpec{}, perfmodel.CPUSequential, defaultConfig(Adding), 43)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for e := 0; e < 30; e++ {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if g.Gamma() != 1 {
			t.Fatalf("adding gamma = %v, want 1", g.Gamma())
		}
	}
	gap, err := g.Gap()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(gap) || math.IsInf(gap, 0) {
		t.Fatalf("adding aggregation diverged to %v", gap)
	}
}

func TestAggregationStrings(t *testing.T) {
	if Adding.String() != "adding" {
		t.Fatal("Adding.String broken")
	}
}

// CoCoA+ configuration: σ′=K damping makes adding (γ=1) safe, and the
// combination must beat plain averaging per epoch (Ma et al., the scaling
// reference of the paper's Section IV).
func TestCoCoAPlusAddingConverges(t *testing.T) {
	p := testProblem(t, 15, 250, 120, 8, 0.005)
	const k = 8
	run := func(cfg Config, epochs int) float64 {
		g, err := NewCPUGroup(p, perfmodel.Primal, k, engine.DriverSpec{}, perfmodel.CPUSequential, cfg, 47)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		for e := 0; e < epochs; e++ {
			if _, err := g.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		gap, err := g.Gap()
		if err != nil {
			t.Fatal(err)
		}
		return gap
	}
	const epochs = 60
	cocoaPlus := run(Config{Aggregation: Adding, SigmaPrime: k, Link: perfmodel.Link10GbE}, epochs)
	averaging := run(Config{Aggregation: Averaging, Link: perfmodel.Link10GbE}, epochs)
	nakedAdding := run(Config{Aggregation: Adding, Link: perfmodel.Link10GbE}, epochs)
	if math.IsNaN(cocoaPlus) || cocoaPlus > 0.5 {
		t.Fatalf("CoCoA+ diverged: gap %v", cocoaPlus)
	}
	if cocoaPlus >= averaging {
		t.Fatalf("CoCoA+ gap %v not better than averaging %v", cocoaPlus, averaging)
	}
	if cocoaPlus >= nakedAdding && !math.IsNaN(nakedAdding) {
		t.Logf("note: undamped adding happened to survive here (gap %v)", nakedAdding)
	}
}

// σ′-damped local epochs must return true A·Δβ deltas: aggregating the
// shared vector with γ=1 keeps it consistent with the assembled global
// model.
func TestCoCoAPlusSharedVectorConsistency(t *testing.T) {
	p := testProblem(t, 16, 120, 80, 6, 0.01)
	const k = 4
	g, err := NewCPUGroup(p, perfmodel.Primal, k, engine.DriverSpec{}, perfmodel.CPUSequential,
		Config{Aggregation: Adding, SigmaPrime: k, Link: perfmodel.Link10GbE}, 51)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for e := 0; e < 10; e++ {
		if _, err := g.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	parts := PartitionRandom(p.M, k, 51)
	global := make([]float32, p.M)
	for rank, w := range g.Workers {
		for li, gi := range parts[rank] {
			global[gi] = w.Model()[li]
		}
	}
	fresh := make([]float32, p.N)
	p.A.MulVec(fresh, global)
	var drift float64
	for i, v := range fresh {
		d := float64(v - g.Workers[0].Shared()[i])
		drift += d * d
	}
	if drift > 1e-4 {
		t.Fatalf("shared vector inconsistent with model under CoCoA+: drift %v", drift)
	}
}

// σ′ values that are not powers of two round the damped shared-vector
// updates differently from the undamped arithmetic (multiplying by σ′ is
// no longer exact), so their runs are checked for convergence and
// consistency rather than bits: CoCoA+ with K = σ′ = 3 and 6 must shrink
// the gap in both forms and keep the shared vector equal to A·model.
func TestCoCoAPlusNonPowerOfTwoSigmaConverges(t *testing.T) {
	p := testProblem(t, 19, 240, 120, 8, 0.01)
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		for _, k := range []int{3, 6} {
			g, err := NewCPUGroup(p, form, k, engine.DriverSpec{}, perfmodel.CPUSequential,
				Config{Aggregation: Adding, SigmaPrime: float64(k), Link: perfmodel.Link10GbE}, 59)
			if err != nil {
				t.Fatal(err)
			}
			var first float64
			for e := 1; e <= 60; e++ {
				if _, err := g.RunEpoch(); err != nil {
					t.Fatal(err)
				}
				if e == 1 {
					if first, err = g.Gap(); err != nil {
						t.Fatal(err)
					}
				}
			}
			last, err := g.Gap()
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(last) || last > first*1e-2 {
				t.Fatalf("%v K=σ′=%d: gap %v after 60 epochs, %v after 1", form, k, last, first)
			}
			n := p.M
			if form == perfmodel.Dual {
				n = p.N
			}
			global := make([]float32, n)
			for rank, w := range g.Workers {
				for li, gi := range PartitionRandom(n, k, 59)[rank] {
					global[gi] = w.Model()[li]
				}
			}
			var fresh []float32
			if form == perfmodel.Primal {
				fresh = make([]float32, p.N)
				p.A.MulVec(fresh, global)
			} else {
				fresh = make([]float32, p.M)
				p.A.MulTVec(fresh, global)
			}
			var drift float64
			for i, v := range fresh {
				d := float64(v - g.Workers[0].Shared()[i])
				drift += d * d
			}
			if drift > 1e-4 {
				t.Fatalf("%v K=σ′=%d: shared vector drifted from A·model by %v", form, k, drift)
			}
			g.Close()
		}
	}
}

// Both CPU constructors build their workers through one body, so a CoCoA+
// run (Adding, σ′=K) given PartitionRandom's partition explicitly must be
// bitwise the run NewCPUGroup makes with the same seed — Config.SigmaPrime
// included.
func TestExplicitPartitionGroupMatchesRandomGroup(t *testing.T) {
	p := testProblem(t, 17, 160, 90, 6, 0.01)
	const k, seed, epochs = 4, 53, 8
	cfg := Config{Aggregation: Adding, SigmaPrime: k, Link: perfmodel.Link10GbE}
	run := func(explicit bool) *Group {
		var g *Group
		var err error
		if explicit {
			g, err = NewCPUGroupWithPartition(p, perfmodel.Primal, PartitionRandom(p.M, k, seed),
				engine.DriverSpec{}, perfmodel.CPUSequential, cfg, seed)
		} else {
			g, err = NewCPUGroup(p, perfmodel.Primal, k, engine.DriverSpec{}, perfmodel.CPUSequential, cfg, seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		for e := 0; e < epochs; e++ {
			if _, err := g.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	a, b := run(false), run(true)
	defer a.Close()
	defer b.Close()
	for r := range a.Workers {
		for name, pair := range map[string][2][]float32{
			"model":  {a.Workers[r].Model(), b.Workers[r].Model()},
			"shared": {a.Workers[r].Shared(), b.Workers[r].Shared()},
		} {
			for i := range pair[0] {
				if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
					t.Fatalf("rank %d %s[%d]: NewCPUGroup %v, explicit partition %v", r, name, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// RecomputeShared on a partition yields only this rank's share of the
// shared vector, so a local solver asking for periodic recomputation must
// be refused rather than silently erase the other ranks' contributions.
func TestWorkerRejectsRecomputeEvery(t *testing.T) {
	p := testProblem(t, 18, 40, 20, 4, 0.1)
	_, err := NewCPUGroup(p, perfmodel.Primal, 2, engine.DriverSpec{Name: engine.DriverAtomic, Threads: 2, RecomputeEvery: 3},
		perfmodel.CPUSequential, defaultConfig(Averaging), 1)
	if err == nil || !strings.Contains(err.Error(), "RecomputeEvery") {
		t.Fatalf("RecomputeEvery accepted for a partition: err = %v", err)
	}
}
