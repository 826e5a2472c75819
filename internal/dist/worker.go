package dist

import (
	"fmt"
	"math"
	"time"

	"tpascd/internal/cluster"
	"tpascd/internal/engine"
	"tpascd/internal/obs"
	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
)

// Aggregation selects how the master combines the workers' shared-vector
// updates.
type Aggregation int

// The aggregation strategies compared in Figs. 4-6 (Averaging/Adaptive)
// plus the "adding" variant of Ma et al. the paper's Section IV-B cites
// as prior work ("existing work has considered both averaging and adding
// of updates").
const (
	// Averaging applies γ = 1/K (Algorithm 3).
	Averaging Aggregation = iota
	// Adaptive computes the closed-form optimal γ each epoch
	// (Algorithm 4, the paper's contribution).
	Adaptive
	// Adding applies γ = 1 (CoCoA+-style adding); aggressive, and can
	// overshoot when worker partitions are correlated.
	Adding
)

// String names the strategy.
func (a Aggregation) String() string {
	switch a {
	case Adaptive:
		return "adaptive"
	case Adding:
		return "adding"
	default:
		return "averaging"
	}
}

// Config parameterizes a distributed worker.
type Config struct {
	// Aggregation selects averaging (Algorithm 3) or adaptive
	// (Algorithm 4) combination of updates.
	Aggregation Aggregation
	// Link models the network between workers and master for the
	// simulated-time accounting (it does not affect convergence).
	Link perfmodel.Link
	// PCIe, when non-zero, overrides the pinned PCIe link of the workers'
	// devices (used by the experiment harness's scale transformation).
	PCIe perfmodel.Link
	// HostFlopsPerSec, when non-zero, overrides the host vector-arithmetic
	// rate used for the HostComp part of the time breakdown.
	HostFlopsPerSec float64
	// SigmaPrime is the CoCoA+ subproblem-safety parameter σ′ of the
	// local subproblems (< 1 is treated as 1, the paper's CoCoA-σ=1
	// configuration; see ridge.NewPartitionLoss). σ′ = K with Adding
	// aggregation is the CoCoA+ configuration of Ma et al.
	SigmaPrime float64
	// WrapComm, when non-nil, wraps each rank's communicator before its
	// worker is built — the seam for transport middleware, above all
	// fault injection (cluster.Chaos) in the robustness tests. Honoured
	// by the in-process Group constructors.
	WrapComm func(cluster.Comm) cluster.Comm
	// Trace receives one "dist.round" span per synchronous round (epoch,
	// aggregation γ, modeled seconds, wall-clock duration plus its
	// compute_s/comm_s split) and one "dist.gap" span per collective gap
	// evaluation. nil disables tracing.
	Trace *obs.Tracer
}

// hostVectorOpSeconds applies the configured host rate.
func (c Config) hostVectorOpSeconds(elements, passes int) float64 {
	rate := c.HostFlopsPerSec
	if rate <= 0 {
		rate = perfmodel.HostCPUFlopsPerSec
	}
	return float64(elements) * float64(passes) / rate
}

// Worker executes one rank of the synchronous distributed SCD algorithms.
// All ranks must call RunEpoch collectively, like an MPI program.
//
// The rank's local solver is an ordinary engine solver over the ridge
// partition loss of its coordinates: one local epoch per round is one
// RunEpoch of the registered driver, which updates the solver's model and
// shared vector in place; the worker aggregates into the same two slices
// between rounds.
type Worker struct {
	comm    cluster.Comm
	loss    *ridge.Loss
	solver  engine.Solver
	profile perfmodel.CPUProfile
	cfg     Config

	model  []float32 // local coordinates (aliases the solver's model)
	shared []float32 // global shared vector, consistent across ranks (aliases the solver's)

	prevModel  []float32
	prevShared []float32
	deltaSum   []float32

	gamma float64
	epoch int // completed synchronous rounds

	// commDur accumulates the wall-clock time this rank spent blocked in
	// collectives during the current round (or Gap call); reset at the
	// start of each. It feeds the compute-vs-communication breakdown in
	// the emitted spans, which obsreport turns into per-rank shares.
	commDur time.Duration
}

// NewWorker builds one rank over its partition of the problem: ids are
// the coordinates it owns (features in the primal form, examples in the
// dual), and spec selects its local solver from the engine driver registry
// (a CPU driver, or tpa-scd with spec.Device set). profile models the
// compute time of CPU local epochs; a tpa-scd local is timed by its
// device. cfg.SigmaPrime damps the local subproblem.
//
// spec.RecomputeEvery must be 0: RecomputeShared on a partition yields
// only this rank's share of the shared vector, so the drivers' drift
// repair would erase the other ranks' contributions.
func NewWorker(comm cluster.Comm, p *ridge.Problem, form perfmodel.Form, ids []int, spec engine.DriverSpec,
	profile perfmodel.CPUProfile, cfg Config) (*Worker, error) {
	if spec.RecomputeEvery > 0 {
		return nil, fmt.Errorf("dist: RecomputeEvery %d: a partition cannot recompute the global shared vector", spec.RecomputeEvery)
	}
	loss := ridge.NewPartitionLoss(p, form, ids, cfg.SigmaPrime)
	solver, err := engine.NewSolver(loss, spec)
	if err != nil {
		return nil, err
	}
	return &Worker{
		comm:       comm,
		loss:       loss,
		solver:     solver,
		profile:    profile,
		cfg:        cfg,
		model:      solver.Model(),
		shared:     solver.SharedVector(),
		prevModel:  make([]float32, loss.NumCoords()),
		prevShared: make([]float32, loss.SharedLen()),
		deltaSum:   make([]float32, loss.SharedLen()),
		gamma:      1,
	}, nil
}

// Close releases the local solver's device memory (a no-op for CPU
// drivers).
func (w *Worker) Close() {
	if c, ok := w.solver.(interface{ Close() }); ok {
		c.Close()
	}
}

// Model returns the local model weights (aliases worker state).
func (w *Worker) Model() []float32 { return w.model }

// Shared returns the global shared vector (aliases worker state).
func (w *Worker) Shared() []float32 { return w.shared }

// Gamma returns the aggregation parameter applied in the last epoch.
func (w *Worker) Gamma() float64 { return w.gamma }

// Epoch returns the number of synchronous rounds completed (resumed
// rounds included).
func (w *Worker) Epoch() int { return w.epoch }

// Snapshot returns a copy of the rank-local model and the completed epoch
// count — exactly the state a checkpoint must persist. The shared vector
// is deliberately not captured: ResumeFrom recomputes it from the models,
// which keeps checkpoints small and repairs any accumulated float drift
// (the same repair path engine.Async exposes as RecomputeShared).
func (w *Worker) Snapshot() ([]float32, int) {
	m := make([]float32, len(w.model))
	copy(m, w.model)
	return m, w.epoch
}

// ResumeFrom restores a checkpointed model and rejoins the group at the
// given epoch. It is collective: every rank must call it with its own
// partition's model and the same epoch before any RunEpoch; a worker that
// has already run or resumed rounds is refused, since its permutation
// stream is no longer at the start the fast-forward counts from. Ranks first
// agree they are resuming from the same round (mismatched checkpoints are
// an error, not silent divergence), then rebuild the global shared vector
// by summing each rank's local contribution — for either form that is
// Σ_c model[c]·a_c over the rank's coordinates (the partition loss's
// RecomputeShared), Allreduced across ranks. The local solver's
// permutation stream is fast-forwarded past the completed epochs, so the
// continued trajectory draws the permutations an uninterrupted run would.
func (w *Worker) ResumeFrom(model []float32, epoch int) error {
	skipper, ok := w.solver.(interface{ SkipEpochs(int) })
	if !ok {
		return fmt.Errorf("dist: local solver %s cannot fast-forward its permutation stream", w.solver.Name())
	}
	if w.epoch != 0 {
		return fmt.Errorf("dist: resume on a worker already at epoch %d; resume only a fresh worker", w.epoch)
	}
	if len(model) != len(w.model) {
		return fmt.Errorf("dist: resume model has %d coordinates, partition has %d", len(model), len(w.model))
	}
	if epoch < 0 {
		return fmt.Errorf("dist: resume epoch %d", epoch)
	}
	K := w.comm.Size()
	slots := make([]float64, K)
	slots[w.comm.Rank()] = float64(epoch)
	summed, err := w.comm.AllreduceScalars(slots)
	if err != nil {
		return err
	}
	for r := 0; r < K; r++ {
		if int(summed[r]) != epoch {
			return fmt.Errorf("dist: rank %d resumes from epoch %d but rank %d from epoch %d",
				w.comm.Rank(), epoch, r, int(summed[r]))
		}
	}
	copy(w.model, model)
	local := make([]float32, len(w.shared))
	w.loss.RecomputeShared(local, w.model)
	if err := w.comm.Allreduce(local, w.shared); err != nil {
		return err
	}
	skipper.SkipEpochs(epoch)
	w.epoch = epoch
	return nil
}

// RunEpoch executes one synchronous round: local epoch, reduction of
// shared-vector deltas, aggregation-parameter computation, application and
// re-broadcast. It returns the modeled time breakdown of the round.
func (w *Worker) RunEpoch() (perfmodel.Breakdown, error) {
	var bd perfmodel.Breakdown
	start := time.Now()
	w.commDur = 0
	copy(w.prevModel, w.model)
	copy(w.prevShared, w.shared)

	// Local optimization pass.
	computeStart := time.Now()
	w.solver.RunEpoch()
	computeDur := time.Since(computeStart)

	// Local deltas, formed in place in the shared vector (it is rebuilt
	// below). Under σ′ > 1 the solver's shared vector carries σ′·A_kΔβ_k;
	// un-scale it so the group aggregates true A_kΔβ_k contributions. The
	// un-scaled vector w + A_kΔβ_k is rounded to float32 before w is
	// subtracted, the same arithmetic as un-scaling the vector in place.
	delta := w.shared
	if sigma := w.loss.SigmaPrime(); sigma > 1 {
		sigma32 := float32(sigma)
		for i, prev := range w.prevShared {
			unscaled := prev + (delta[i]-prev)/sigma32
			delta[i] = unscaled - prev
		}
	} else {
		for i := range delta {
			delta[i] -= w.prevShared[i]
		}
	}

	// Reduce + broadcast so every rank holds the summed delta.
	K := w.comm.Size()
	commStart := time.Now()
	if err := w.comm.Reduce(delta, w.deltaSum, 0); err != nil {
		return bd, err
	}
	if err := w.comm.Broadcast(w.deltaSum, 0); err != nil {
		return bd, err
	}
	w.commDur += time.Since(commStart)

	// Aggregation parameter.
	gamma := 1.0 / float64(K)
	var scalarPayload int64
	switch w.cfg.Aggregation {
	case Adaptive:
		var err error
		gamma, scalarPayload, err = w.adaptiveGamma()
		if err != nil {
			return bd, err
		}
	case Adding:
		gamma = 1
	}
	w.gamma = gamma

	// Apply: w^(t) = w^(t-1) + γ·Δw ;  β_k = β_k^(t-1) + γ·Δβ_k.
	g32 := float32(gamma)
	for i := range w.shared {
		w.shared[i] = w.prevShared[i] + g32*w.deltaSum[i]
	}
	for j := range w.model {
		w.model[j] = w.prevModel[j] + g32*(w.model[j]-w.prevModel[j])
	}

	// Modeled time: synchronous round = max worker compute (+PCIe), plus
	// master-routed network collectives, plus host-side vector arithmetic.
	compute, pcie := w.epochTimes()
	maxes, err := w.allreduceMax([]float64{compute, pcie})
	if err != nil {
		return bd, err
	}
	if maxes[1] > 0 {
		bd.GPUComp = maxes[0] // device local solver
	} else {
		bd.HostComp = maxes[0] // CPU local solver
	}
	bd.PCIe = maxes[1]
	sharedBytes := int64(len(w.shared)) * 4
	bd.Network = w.cfg.Link.ReduceSeconds(K, sharedBytes) + w.cfg.Link.BroadcastSeconds(K, sharedBytes)
	if scalarPayload > 0 {
		bd.Network += w.cfg.Link.ReduceSeconds(K, scalarPayload) + w.cfg.Link.BroadcastSeconds(K, scalarPayload)
	}
	bd.HostComp += w.cfg.hostVectorOpSeconds(len(w.shared), 4)
	w.epoch++
	w.cfg.Trace.Emit("dist.round", start, time.Since(start),
		obs.F("rank", float64(w.comm.Rank())),
		obs.F("epoch", float64(w.epoch)),
		obs.F("gamma", w.gamma),
		obs.F("seconds", bd.Total()),
		obs.F("compute_s", computeDur.Seconds()),
		obs.F("comm_s", w.commDur.Seconds()),
	)
	return bd, nil
}

// epochTimes returns the modeled cost of one local epoch: compute seconds
// and PCIe staging seconds. A device local runs its kernel and stages the
// shared vector off and back onto the device once each (the Fig. 7
// architecture: the dataset stays resident, only the shared vector moves);
// a CPU local is timed by the profile from the driver's epoch work.
func (w *Worker) epochTimes() (compute, pcie float64) {
	if gpu, ok := w.solver.(*engine.GPU); ok {
		bytes := int64(len(w.shared)) * 4
		return gpu.EpochSeconds(), gpu.Device().TransferSeconds(bytes, true) * 2
	}
	nnz, coords := w.solver.EpochWork()
	return w.profile.EpochSeconds(nnz, coords), 0
}

// adaptiveGamma computes the closed-form optimal aggregation parameter.
//
// Primal (eq. 7, with the residual written out; see DESIGN.md):
//
//	γ* = −(⟨w−y, Δw⟩ + Nλ⟨β, Δβ⟩) / (‖Δw‖² + Nλ‖Δβ‖²)
//
// Dual (with the ‖Δα‖² denominator obtained by differentiating D):
//
//	γ̄* = (⟨Δα, y⟩ − N⟨α, Δα⟩ − (1/λ)⟨w̄, Δw̄⟩) / ((1/λ)‖Δw̄‖² + N‖Δα‖²)
//
// The model-side inner products are computed distributedly: workers own
// disjoint coordinates, so the global values are plain sums (the paper's
// observation that makes the extra communication a few scalars per epoch).
func (w *Worker) adaptiveGamma() (float64, int64, error) {
	l := w.loss
	N := float64(l.Examples())
	lambda := l.Lambda()
	y, yCoord := l.Labels(), l.CoordLabels()

	// Local model-side scalars.
	var mDot, mNormSq, mY float64
	for j := range w.model {
		d := float64(w.model[j]) - float64(w.prevModel[j])
		mDot += float64(w.prevModel[j]) * d
		mNormSq += d * d
		if yCoord != nil {
			mY += d * float64(yCoord[j])
		}
	}
	sums, err := w.timedAllreduceScalars([]float64{mDot, mNormSq, mY})
	if err != nil {
		return 0, 0, err
	}
	payload := int64(3 * 8)
	mDot, mNormSq, mY = sums[0], sums[1], sums[2]

	// Shared-side scalars from globally identical vectors.
	var sDot, sNormSq float64
	if l.Form() == perfmodel.Primal {
		for i := range w.deltaSum {
			d := float64(w.deltaSum[i])
			sDot += (float64(w.prevShared[i]) - float64(y[i])) * d
			sNormSq += d * d
		}
		num := -(sDot + N*lambda*mDot)
		den := sNormSq + N*lambda*mNormSq
		if den <= 0 || math.IsNaN(num/den) {
			return 1, payload, nil
		}
		return num / den, payload, nil
	}
	for i := range w.deltaSum {
		d := float64(w.deltaSum[i])
		sDot += float64(w.prevShared[i]) * d
		sNormSq += d * d
	}
	num := mY - N*mDot - sDot/lambda
	den := sNormSq/lambda + N*mNormSq
	if den <= 0 || math.IsNaN(num/den) {
		return 1, payload, nil
	}
	return num / den, payload, nil
}

// timedAllreduceScalars runs the collective and charges its wall-clock
// duration to the current round's communication share.
func (w *Worker) timedAllreduceScalars(vals []float64) ([]float64, error) {
	t0 := time.Now()
	out, err := w.comm.AllreduceScalars(vals)
	w.commDur += time.Since(t0)
	return out, err
}

// allreduceMax returns the element-wise maximum of vals across ranks,
// implemented with per-rank slots over the sum-Allreduce (group sizes here
// are ≤ 16, so the payload stays tiny).
func (w *Worker) allreduceMax(vals []float64) ([]float64, error) {
	K := w.comm.Size()
	r := w.comm.Rank()
	slots := make([]float64, len(vals)*K)
	for i, v := range vals {
		slots[i*K+r] = v
	}
	summed, err := w.timedAllreduceScalars(slots)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	for i := range vals {
		m := math.Inf(-1)
		for rr := 0; rr < K; rr++ {
			if summed[i*K+rr] > m {
				m = summed[i*K+rr]
			}
		}
		out[i] = m
	}
	return out, nil
}

// Gap computes the global duality gap collectively: every rank contributes
// the pieces it owns (disjoint model coordinates and matrix slices) through
// one scalar Allreduce, and all ranks return the same value. This mirrors
// how a real distributed implementation evaluates convergence without
// materializing the model on one node.
func (w *Worker) Gap() (float64, error) {
	start := time.Now()
	w.commDur = 0
	gap, err := w.computeGap()
	if err == nil {
		w.cfg.Trace.Emit("dist.gap", start, time.Since(start),
			obs.F("rank", float64(w.comm.Rank())),
			obs.F("epoch", float64(w.epoch)),
			obs.F("gap", gap),
			obs.F("comm_s", w.commDur.Seconds()),
		)
	}
	return gap, err
}

func (w *Worker) computeGap() (float64, error) {
	l := w.loss
	N := float64(l.Examples())
	lambda := l.Lambda()
	if l.Form() == perfmodel.Primal {
		y := l.Labels()
		// P(β) = ‖w−y‖²/(2N) + λ/2·Σ_k‖β_k‖²
		// α̂ = (y−w)/N (global), D(α̂) needs ‖Aᵀα̂‖² = Σ_k Σ_{j∈S_k}⟨a_j,α̂⟩².
		var betaSq float64
		for _, b := range w.model {
			betaSq += float64(b) * float64(b)
		}
		alphaHat := make([]float32, len(w.shared))
		for i := range alphaHat {
			alphaHat[i] = (y[i] - w.shared[i]) / float32(N)
		}
		var atASq float64
		for c := range w.model {
			idx, val := l.CoordNZ(c)
			var dp float64
			for k := range idx {
				dp += float64(val[k]) * float64(alphaHat[idx[k]])
			}
			atASq += dp * dp
		}
		sums, err := w.timedAllreduceScalars([]float64{betaSq, atASq})
		if err != nil {
			return 0, err
		}
		betaSq, atASq = sums[0], sums[1]
		var residSq, alphaSq, alphaY float64
		for i := range w.shared {
			r := float64(w.shared[i]) - float64(y[i])
			residSq += r * r
			a := float64(alphaHat[i])
			alphaSq += a * a
			alphaY += a * float64(y[i])
		}
		p := residSq/(2*N) + lambda/2*betaSq
		d := -N/2*alphaSq - atASq/(2*lambda) + alphaY
		return math.Abs(p - d), nil
	}
	// Dual: D(α) = −N/2·Σ‖α_k‖² − ‖w̄‖²/(2λ) + Σ⟨α_k,y_k⟩ ;
	// β̂ = w̄/λ (global), P(β̂) needs Σ_k Σ_{i∈rows_k}(⟨ā_i,β̂⟩−y_i)².
	var alphaSq, alphaY, residSq, betaHatSq float64
	y := l.CoordLabels()
	betaHat := make([]float32, len(w.shared))
	invLambda := 1 / float32(lambda)
	for j := range betaHat {
		betaHat[j] = w.shared[j] * invLambda
		betaHatSq += float64(betaHat[j]) * float64(betaHat[j])
	}
	for c := range w.model {
		a := float64(w.model[c])
		alphaSq += a * a
		alphaY += a * float64(y[c])
		idx, val := l.CoordNZ(c)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(betaHat[idx[k]])
		}
		r := dp - float64(y[c])
		residSq += r * r
	}
	sums, err := w.timedAllreduceScalars([]float64{alphaSq, alphaY, residSq})
	if err != nil {
		return 0, err
	}
	alphaSq, alphaY, residSq = sums[0], sums[1], sums[2]
	var wbarSq float64
	for _, x := range w.shared {
		wbarSq += float64(x) * float64(x)
	}
	d := -N/2*alphaSq - wbarSq/(2*lambda) + alphaY
	p := residSq/(2*N) + lambda/2*betaHatSq
	return math.Abs(p - d), nil
}
