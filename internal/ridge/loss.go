package ridge

import (
	"math"

	"tpascd/internal/perfmodel"
)

// Loss adapts a ridge Problem to the engine's Loss interface for either
// formulation: coordinates are features in the primal (eq. 2 of the paper,
// shared vector w = Aβ) and examples in the dual (eq. 4, shared vector
// w̄ = Aᵀα). It satisfies engine.Loss structurally so this package does not
// depend on the engine.
//
// A Loss covers either the whole problem (NewLoss) or one worker's
// partition of its coordinates (NewPartitionLoss), the local subproblem of
// the distributed algorithms. Both read the same coordinate-major storage,
// so one set of engine drivers serves the single-node and the distributed
// solvers.
type Loss struct {
	p    *Problem
	form perfmodel.Form
	part bool
	// numCoords is M (primal) or N (dual) for the whole problem, the
	// partition size otherwise; sharedLen is N (primal) or M (dual).
	numCoords, sharedLen int

	// Coordinate c's non-zeros are idx/val[ptr[c]:ptr[c+1]]. The whole
	// problem aliases the problem's CSC (primal) or CSR (dual) arrays; a
	// partition holds one copy of its coordinates' slices. With
	// pattern-only storage val is nil and ones is a shared all-ones buffer.
	ptr   []int
	idx   []int32
	val   []float32
	ones  []float32
	norms []float64 // ‖a_c‖² per coordinate
	// y holds the N labels indexed like the shared vector in the primal,
	// and the coordinates' own labels in the dual.
	y []float32

	lambda float64
	nl     float64 // Nλ with the global N, the same for every partition
	sigma  float64 // CoCoA+ σ′; 1 for the whole problem
}

// NewLoss returns the ridge loss for the given formulation over the whole
// problem. It aliases the problem's storage and allocates nothing.
func NewLoss(p *Problem, form perfmodel.Form) *Loss {
	l := &Loss{p: p, form: form, lambda: p.Lambda, nl: float64(p.N) * p.Lambda, sigma: 1, y: p.Y}
	if form == perfmodel.Primal {
		l.numCoords, l.sharedLen = p.M, p.N
		l.ptr, l.idx, l.val, l.norms = p.ACols.ColPtr, p.ACols.RowIdx, p.ACols.Val, p.colNormsSq
	} else {
		l.numCoords, l.sharedLen = p.N, p.M
		l.ptr, l.idx, l.val, l.norms = p.A.RowPtr, p.A.ColIdx, p.A.Val, p.rowNormsSq
	}
	return l
}

// NewPartitionLoss returns the local subproblem of one worker of the
// distributed algorithms: the coordinates ids (features in the primal,
// examples in the dual) of the problem, against the full shared vector,
// with the global N and λ in the update rules.
//
// sigmaPrime is the CoCoA+ subproblem-safety parameter σ′ (values < 1 mean
// 1): the data-curvature term of each step becomes σ′·‖a_c‖², and the
// maintained shared vector carries σ′·A_kΔβ_k — the subproblem's quadratic
// term σ′/(2N)·‖A_kΔβ_k‖². The caller divides the shared-vector change of
// an epoch by σ′ to obtain the true A_kΔβ_k. σ′ = 1 is the exact step of
// Algorithm 1 (the paper's CoCoA-with-σ=1 configuration); σ′ = K lets the
// aggregated updates be added (γ = 1) without overshooting.
//
// The partition copies its coordinates' slices of the data once, in the
// coordinate-major orientation, and switches to pattern-only storage when
// every value is 1.
func NewPartitionLoss(p *Problem, form perfmodel.Form, ids []int, sigmaPrime float64) *Loss {
	if sigmaPrime < 1 {
		sigmaPrime = 1
	}
	l := &Loss{
		p: p, form: form, part: true, numCoords: len(ids),
		lambda: p.Lambda, nl: float64(p.N) * p.Lambda, sigma: sigmaPrime,
		norms: make([]float64, len(ids)),
	}
	if form == perfmodel.Primal {
		sub := p.ACols.SelectCols(ids)
		l.sharedLen, l.y = p.N, p.Y
		l.ptr, l.idx, l.val = sub.ColPtr, sub.RowIdx, sub.Val
		for k, id := range ids {
			l.norms[k] = p.ColNormSq(id)
		}
	} else {
		sub := p.A.SelectRows(ids)
		l.sharedLen, l.y = p.M, make([]float32, len(ids))
		l.ptr, l.idx, l.val = sub.RowPtr, sub.ColIdx, sub.Val
		for k, id := range ids {
			l.norms[k] = p.RowNormSq(id)
			l.y[k] = p.Y[id]
		}
	}
	l.dropUnitValues()
	return l
}

// dropUnitValues switches to pattern-only storage when every stored value
// is exactly 1, releasing the value array. This is the memory optimization
// of the paper's footnote 2 for the criteo data ("the values in the
// training data matrix are always 1 and so one could halve the memory
// usage by re-writing the code to explicitly assume this"). CoordNZ then
// hands out slices of one small all-ones buffer, so the drivers need no
// branches.
func (l *Loss) dropUnitValues() {
	for _, x := range l.val {
		if x != 1 {
			return
		}
	}
	maxLen := 0
	for c := 0; c < l.numCoords; c++ {
		if n := l.ptr[c+1] - l.ptr[c]; n > maxLen {
			maxLen = n
		}
	}
	l.ones = make([]float32, maxLen)
	for i := range l.ones {
		l.ones[i] = 1
	}
	l.val = nil
}

// Problem returns the underlying problem.
func (l *Loss) Problem() *Problem { return l.p }

// Name returns the algorithm tag.
func (l *Loss) Name() string { return "SCD" }

// Form reports the formulation.
func (l *Loss) Form() perfmodel.Form { return l.form }

// NumCoords returns the number of coordinates: M (primal) or N (dual) for
// the whole problem, the partition size otherwise.
func (l *Loss) NumCoords() int { return l.numCoords }

// SharedLen returns N (primal) or M (dual).
func (l *Loss) SharedLen() int { return l.sharedLen }

// NNZ returns the stored entries of the loss's coordinates.
func (l *Loss) NNZ() int64 { return int64(len(l.idx)) }

// Lambda returns the regularization strength λ.
func (l *Loss) Lambda() float64 { return l.lambda }

// Examples returns N, the number of training examples of the whole
// problem — the N of the update rules, for a partition too.
func (l *Loss) Examples() int { return l.p.N }

// SigmaPrime returns the CoCoA+ σ′ of a partition (1 for the whole
// problem).
func (l *Loss) SigmaPrime() float64 { return l.sigma }

// CoordLabels returns the labels of the coordinates in the dual (the
// examples' labels, indexed like the model); nil in the primal.
func (l *Loss) CoordLabels() []float32 {
	if l.form == perfmodel.Dual {
		return l.y
	}
	return nil
}

// CoordNZ returns the non-zero pattern of coordinate c: the column a_c in
// the primal, the row ā_c in the dual.
func (l *Loss) CoordNZ(c int) ([]int32, []float32) {
	lo, hi := l.ptr[c], l.ptr[c+1]
	if l.ones != nil {
		return l.idx[lo:hi], l.ones[:hi-lo]
	}
	return l.idx[lo:hi], l.val[lo:hi]
}

// Residual reports the inner-product form: residual Σ val·(y−w) in the
// primal, plain Σ val·w̄ in the dual.
func (l *Loss) Residual() bool { return l.form == perfmodel.Primal }

// Labels returns the example labels for the primal residual form.
func (l *Loss) Labels() []float32 {
	if l.form == perfmodel.Primal {
		return l.y
	}
	return nil
}

// Step computes the exact closed-form coordinate step (eq. 2 primal, eq. 4
// dual) from the inner product dp and the current weight, with the data
// curvature scaled by σ′.
func (l *Loss) Step(c int, dp float64, cur float32) float32 {
	if l.form == perfmodel.Primal {
		return float32((dp - l.nl*float64(cur)) / (l.sigma*l.norms[c] + l.nl))
	}
	return float32((l.lambda*float64(l.y[c]) - dp - l.nl*float64(cur)) / (l.nl + l.sigma*l.norms[c]))
}

// UpdateCoeff returns the shared-vector coefficient: the step itself,
// scaled by σ′ for a damped partition.
func (l *Loss) UpdateCoeff(c int, delta float32) float32 {
	if l.sigma == 1 {
		return delta
	}
	return float32(l.sigma) * delta
}

// Gap computes the honest duality gap from the model alone. A partition
// cannot certify the global problem on its own and returns NaN; the
// distributed worker computes the global gap collectively.
func (l *Loss) Gap(model []float32) float64 {
	if l.part {
		return math.NaN()
	}
	if l.form == perfmodel.Primal {
		return l.p.GapPrimal(model)
	}
	return l.p.GapDual(model)
}

// RecomputeShared rebuilds w = Aβ (primal) or w̄ = Aᵀα (dual) into dst.
// For a partition that is its own share A_kβ_k (primal) or A_kᵀα_k (dual)
// of the shared vector; the ranks' shares sum to the global one.
func (l *Loss) RecomputeShared(dst, model []float32) {
	if !l.part {
		if l.form == perfmodel.Primal {
			l.p.A.MulVec(dst, model)
		} else {
			l.p.A.MulTVec(dst, model)
		}
		return
	}
	for i := range dst {
		dst[i] = 0
	}
	for c, m := range model {
		if m == 0 {
			continue
		}
		idx, val := l.CoordNZ(c)
		for k := range idx {
			dst[idx[k]] += val[k] * m
		}
	}
}

// DataBytes returns the approximate device-resident footprint of the
// matrix (coordinate-major), norms, labels and permutation. A
// pattern-only partition counts its all-ones buffer instead of a value
// array.
func (l *Loss) DataBytes() int64 {
	b := int64(len(l.ptr))*8 + int64(len(l.idx))*4 + int64(len(l.norms))*8
	b += int64(len(l.val)+len(l.ones))*4 + int64(len(l.y))*4
	return b + int64(l.numCoords)*4 // permutation
}
