// Package logistic implements stochastic dual coordinate ascent for
// L2-regularized logistic regression, completing the generalized-linear-
// model family that the paper's line of work targets (its reference [21]
// is distributed coordinate descent for logistic regression, and the
// SDCA framework of reference [9] covers the logistic loss explicitly).
//
// Primal problem over labels y ∈ {−1,+1}ᴺ:
//
//	P(w) = λ/2·‖w‖² + 1/N·Σᵢ log(1 + exp(−yᵢ⟨w, x̄ᵢ⟩)).
//
// Dual, with α ∈ [0,1]ᴺ and w(α) = Σᵢ αᵢ yᵢ x̄ᵢ/(λN):
//
//	D(α) = −1/N·Σᵢ[αᵢ log αᵢ + (1−αᵢ)log(1−αᵢ)] − λ/2·‖w(α)‖².
//
// Unlike ridge (eq. 4 of the paper) and hinge SVM, the exact coordinate
// maximizer has no closed form: ∂D/∂αᵢ = 0 reduces to the strictly
// decreasing 1-D root problem
//
//	g(a) = log(a/(1−a)) + c + q·a = 0,   c = yᵢ⟨w₋ᵢ, x̄ᵢ⟩,  q = ‖x̄ᵢ‖²/(λN),
//
// solved here by guarded bisection (g is monotone from −∞ to +∞ on (0,1),
// so the root is unique and bisection is unconditionally safe — no step
// size, keeping the "no hyper-parameters" property of the SCD family).
package logistic

import (
	"errors"
	"fmt"
	"math"

	"tpascd/internal/engine"
	"tpascd/internal/gpusim"
	"tpascd/internal/sparse"
)

// Problem is a logistic-regression training problem.
type Problem struct {
	A      *sparse.CSR
	Y      []float32
	Lambda float64
	N, M   int

	rowNormsSq []float64
}

// NewProblem validates ±1 labels and wraps the training data.
func NewProblem(a *sparse.CSR, y []float32, lambda float64) (*Problem, error) {
	if a == nil {
		return nil, errors.New("logistic: nil data matrix")
	}
	if len(y) != a.NumRows {
		return nil, fmt.Errorf("logistic: %d labels for %d examples", len(y), a.NumRows)
	}
	for i, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("logistic: label %v at example %d is not ±1", v, i)
		}
	}
	if lambda <= 0 {
		return nil, fmt.Errorf("logistic: lambda must be positive, got %g", lambda)
	}
	return &Problem{
		A:          a,
		Y:          y,
		Lambda:     lambda,
		N:          a.NumRows,
		M:          a.NumCols,
		rowNormsSq: a.RowNormsSq(),
	}, nil
}

// PrimalValue evaluates P(w).
func (p *Problem) PrimalValue(w []float32) float64 {
	var loss float64
	for i := 0; i < p.N; i++ {
		idx, val := p.A.Row(i)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(w[idx[k]])
		}
		loss += logOnePlusExp(-float64(p.Y[i]) * dp)
	}
	var wsq float64
	for _, v := range w {
		wsq += float64(v) * float64(v)
	}
	return p.Lambda/2*wsq + loss/float64(p.N)
}

// DualValue evaluates D(α) given the consistent w(α).
func (p *Problem) DualValue(alpha, w []float32) float64 {
	var ent float64
	for _, a := range alpha {
		ent += xlogx(float64(a)) + xlogx(1-float64(a))
	}
	var wsq float64
	for _, v := range w {
		wsq += float64(v) * float64(v)
	}
	return -ent/float64(p.N) - p.Lambda/2*wsq
}

// Gap returns the duality gap P − D ≥ 0, recomputing w(α) from scratch.
func (p *Problem) Gap(alpha []float32) float64 {
	w := p.SharedFromAlpha(alpha)
	g := p.PrimalValue(w) - p.DualValue(alpha, w)
	if g < 0 {
		g = -g
	}
	return g
}

// SharedFromAlpha recomputes w = Σ αᵢyᵢx̄ᵢ/(λN).
func (p *Problem) SharedFromAlpha(alpha []float32) []float32 {
	w := make([]float32, p.M)
	p.sharedFromAlphaInto(w, alpha)
	return w
}

// sharedFromAlphaInto rebuilds w(α) into w, overwriting it.
func (p *Problem) sharedFromAlphaInto(w, alpha []float32) {
	for i := range w {
		w[i] = 0
	}
	scale := 1 / (p.Lambda * float64(p.N))
	for i := 0; i < p.N; i++ {
		if alpha[i] == 0 {
			continue
		}
		c := float32(float64(alpha[i]) * float64(p.Y[i]) * scale)
		idx, val := p.A.Row(i)
		for k := range idx {
			w[idx[k]] += val[k] * c
		}
	}
}

// xlogx returns x·log x with the 0·log 0 = 0 convention.
func xlogx(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log(x)
}

// logOnePlusExp computes log(1+eˣ) without overflow.
func logOnePlusExp(x float64) float64 {
	if x > 35 {
		return x
	}
	if x < -35 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

// solve1D finds the unique root of g(a) = log(a/(1−a)) + c + q·a on (0,1)
// by bisection. q must be ≥ 0.
func solve1D(c, q float64) float64 {
	lo, hi := 0.0, 1.0
	// 60 halvings bring the interval below 1e-18, beyond float32 model
	// precision.
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		g := math.Log(mid/(1-mid)) + c + q*mid
		if g > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// stepFromDot turns the inner product dp = ⟨w, x̄ᵢ⟩ and the current dual
// variable into the exact coordinate-maximization step.
func (p *Problem) stepFromDot(i int, dp float64, alphaI float32) float32 {
	if p.rowNormsSq[i] == 0 {
		return 0
	}
	q := p.rowNormsSq[i] / (p.Lambda * float64(p.N))
	// c = yᵢ⟨w₋ᵢ, x̄ᵢ⟩ = yᵢ⟨w, x̄ᵢ⟩ − αᵢ·q.
	c := float64(p.Y[i])*dp - float64(alphaI)*q
	return float32(solve1D(c, q) - float64(alphaI))
}

// Delta computes the exact coordinate-maximization step for example i
// given the shared vector w and the current dual variable alphaI.
func (p *Problem) Delta(i int, w []float32, alphaI float32) float32 {
	idx, val := p.A.Row(i)
	var dp float64
	for k := range idx {
		dp += float64(val[k]) * float64(w[idx[k]])
	}
	return p.stepFromDot(i, dp, alphaI)
}

// AccuracyW returns the training accuracy of sign(⟨w, x̄ᵢ⟩).
func (p *Problem) AccuracyW(w []float32) float64 {
	correct := 0
	for i := 0; i < p.N; i++ {
		idx, val := p.A.Row(i)
		var dp float64
		for k := range idx {
			dp += float64(val[k]) * float64(w[idx[k]])
		}
		if (dp >= 0) == (p.Y[i] > 0) {
			correct++
		}
	}
	return float64(correct) / float64(p.N)
}

// Solver is sequential SDCA for logistic regression, running on the
// shared engine.
type Solver struct {
	*engine.Sequential
	problem *Problem
}

// NewSolver returns a sequential solver.
func NewSolver(p *Problem, seed uint64) *Solver {
	return &Solver{engine.NewSequential(NewLoss(p), seed), p}
}

// Alpha returns the dual variables (aliases solver state).
func (s *Solver) Alpha() []float32 { return s.Model() }

// Weights returns the maintained primal weights w.
func (s *Solver) Weights() []float32 { return s.SharedVector() }

// Accuracy returns the training accuracy of sign(⟨w, x̄ᵢ⟩).
func (s *Solver) Accuracy() float64 { return s.problem.AccuracyW(s.SharedVector()) }

// NewAtomic returns an asynchronous logistic SDCA solver: threads
// goroutines with atomic (lossless) shared-vector updates. The bisection
// step stays in (0,1), so every iterate remains dual-feasible even under
// stale shared-vector reads.
func NewAtomic(p *Problem, threads int, seed uint64) *engine.Async {
	return engine.NewAtomic(NewLoss(p), threads, seed)
}

// NewWild returns a PASSCoDe-Wild logistic SDCA solver with racy
// shared-vector updates.
func NewWild(p *Problem, threads int, seed uint64) *engine.Async {
	return engine.NewWild(NewLoss(p), threads, seed)
}

// GPU runs logistic SDCA as a TPA-SCD kernel on a simulated device: one
// thread block per example, partial inner product + tree reduction, the
// bisection root solve in phase 2 (thread 0), atomic write-back.
type GPU struct {
	*engine.GPU
	problem *Problem
}

// NewGPU places the problem on the device.
func NewGPU(p *Problem, dev *gpusim.Device, blockSize int, seed uint64) (*GPU, error) {
	g, err := engine.NewGPU(NewLoss(p), dev, blockSize, seed)
	if err != nil {
		return nil, err
	}
	return &GPU{g, p}, nil
}

// Alpha returns the dual variables (the host view of the device model).
func (g *GPU) Alpha() []float32 { return g.Model() }

// Accuracy returns the training accuracy of sign(⟨w, x̄ᵢ⟩) using the
// device-resident weight vector.
func (g *GPU) Accuracy() float64 { return g.problem.AccuracyW(g.SharedVector()) }
