package engine

import (
	"fmt"

	"tpascd/internal/perfmodel"
	"tpascd/internal/rng"
)

// Sequential implements Algorithm 1 of the paper for any Loss: one thread,
// exact coordinate minimization over a fresh random permutation each epoch,
// with an incrementally maintained shared vector.
type Sequential struct {
	loss   Loss
	model  []float32
	shared []float32
	rng    *rng.Xoshiro256
	perm   []int
}

// NewSequential returns a sequential coordinate-descent solver for the loss.
func NewSequential(l Loss, seed uint64) *Sequential {
	return &Sequential{
		loss:   l,
		model:  make([]float32, l.NumCoords()),
		shared: make([]float32, l.SharedLen()),
		rng:    rng.New(seed),
	}
}

// RunEpoch performs one permuted pass over all coordinates.
func (s *Sequential) RunEpoch() {
	l := s.loss
	s.perm = s.rng.Perm(l.NumCoords(), s.perm)
	residual, labels := l.Residual(), l.Labels()
	for _, c := range s.perm {
		d := l.Step(c, dotSlice(l, c, s.shared, residual, labels), s.model[c])
		if d == 0 {
			continue
		}
		s.model[c] += d
		coeff := l.UpdateCoeff(c, d)
		idx, val := l.CoordNZ(c)
		for k := range idx {
			s.shared[idx[k]] += val[k] * coeff
		}
	}
}

// SkipEpochs draws and discards n epochs' permutations, aligning a freshly
// built solver's permutation stream with one that already ran n epochs:
// with its model and shared vector restored, the solver then continues
// exactly as the uninterrupted run would (checkpoint resume).
func (s *Sequential) SkipEpochs(n int) {
	for i := 0; i < n; i++ {
		s.perm = s.rng.Perm(s.loss.NumCoords(), s.perm)
	}
}

// SetModel overwrites the model (for warm starts, e.g. regularization
// paths) and recomputes the shared vector to match.
func (s *Sequential) SetModel(m []float32) {
	copy(s.model, m)
	s.loss.RecomputeShared(s.shared, s.model)
}

// Loss returns the loss the solver optimizes.
func (s *Sequential) Loss() Loss { return s.loss }

// Model returns the current weights.
func (s *Sequential) Model() []float32 { return s.model }

// SharedVector returns the maintained shared vector.
func (s *Sequential) SharedVector() []float32 { return s.shared }

// Gap returns the honest convergence certificate.
func (s *Sequential) Gap() float64 { return s.loss.Gap(s.model) }

// Form reports the formulation.
func (s *Sequential) Form() perfmodel.Form { return s.loss.Form() }

// Name identifies the solver.
func (s *Sequential) Name() string { return fmt.Sprintf("%s (1 thread)", s.loss.Name()) }

// EpochWork returns per-epoch work counts.
func (s *Sequential) EpochWork() (int64, int64) { return s.loss.NNZ(), int64(s.loss.NumCoords()) }
