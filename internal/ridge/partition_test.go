package ridge

import (
	"math"
	"testing"

	"tpascd/internal/datasets"
	"tpascd/internal/perfmodel"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

var forms = []perfmodel.Form{perfmodel.Primal, perfmodel.Dual}

// dot is the inner product the engine drivers hand to Step.
func dot(l *Loss, c int, shared []float32) float64 {
	idx, val := l.CoordNZ(c)
	labels := l.Labels()
	var dp float64
	for k := range idx {
		i := idx[k]
		if l.Residual() {
			dp += float64(val[k]) * (float64(labels[i]) - float64(shared[i]))
		} else {
			dp += float64(val[k]) * float64(shared[i])
		}
	}
	return dp
}

func randomVec(seed uint64, n int) []float32 {
	r := rng.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestLossDimensions(t *testing.T) {
	p := testProblem(t, 1, 30, 20, 4, 0.1)
	for _, form := range forms {
		l := NewLoss(p, form)
		num, shared := p.M, p.N
		if form == perfmodel.Dual {
			num, shared = p.N, p.M
		}
		if l.NumCoords() != num || l.SharedLen() != shared {
			t.Fatalf("%v dims: %d coords, shared %d", form, l.NumCoords(), l.SharedLen())
		}
		if l.NNZ() != int64(p.A.NNZ()) {
			t.Fatalf("%v NNZ = %d, want %d", form, l.NNZ(), p.A.NNZ())
		}
		part := NewPartitionLoss(p, form, []int{0, 3, 5}, 1)
		if part.NumCoords() != 3 || part.SharedLen() != shared || part.Examples() != p.N {
			t.Fatalf("%v partition dims: %d coords, shared %d, N %d", form, part.NumCoords(), part.SharedLen(), part.Examples())
		}
		if !math.IsNaN(part.Gap(make([]float32, 3))) {
			t.Fatalf("%v partition claims a global certificate", form)
		}
	}
}

// Whole-problem and partition losses report a positive device footprint;
// the whole problem's is its coordinate-major matrix plus 8-byte norms and
// 4-byte permutation entries per coordinate and N 4-byte labels.
func TestLossBytesPositive(t *testing.T) {
	p := testProblem(t, 8, 20, 10, 3, 0.1)
	for _, form := range forms {
		l := NewLoss(p, form)
		part := NewPartitionLoss(p, form, []int{0, 3, 5}, 1)
		if l.DataBytes() <= 0 || part.DataBytes() <= 0 {
			t.Fatalf("%v DataBytes must be positive: %d, %d", form, l.DataBytes(), part.DataBytes())
		}
		want := p.ACols.Bytes() + int64(p.M)*12 + int64(p.N)*4
		if form == perfmodel.Dual {
			want = p.A.Bytes() + int64(p.N)*16
		}
		if l.DataBytes() != want {
			t.Fatalf("%v whole-problem DataBytes = %d, want %d", form, l.DataBytes(), want)
		}
	}
}

// The whole-problem step must be the ridge package's exact coordinate
// update (eqs. 2 and 4).
func TestLossStepMatchesDelta(t *testing.T) {
	p := testProblem(t, 2, 40, 25, 5, 0.05)
	w := randomVec(3, p.N)
	beta := randomVec(4, p.M)
	l := NewLoss(p, perfmodel.Primal)
	for m := 0; m < p.M; m++ {
		if got, want := l.Step(m, dot(l, m, w), beta[m]), p.PrimalDelta(m, w, beta[m]); got != want {
			t.Fatalf("primal step %d: %v vs %v", m, got, want)
		}
	}
	wbar := randomVec(5, p.M)
	alpha := randomVec(6, p.N)
	dl := NewLoss(p, perfmodel.Dual)
	for n := 0; n < p.N; n++ {
		if got, want := dl.Step(n, dot(dl, n, wbar), alpha[n]), p.DualDelta(n, wbar, alpha[n]); got != want {
			t.Fatalf("dual step %d: %v vs %v", n, got, want)
		}
	}
}

// At σ′ = 1 a partition's step for one of its coordinates equals the
// whole-problem step for the same coordinate, in both forms: the global N
// and λ enter the update rules, not the partition's.
func TestPartitionStepMatchesWholeProblem(t *testing.T) {
	p := testProblem(t, 4, 35, 22, 4, 0.05)
	for _, form := range forms {
		whole := NewLoss(p, form)
		ids := []int{3, 7, 11, 19}
		part := NewPartitionLoss(p, form, ids, 1)
		shared := randomVec(5, whole.SharedLen())
		for k, id := range ids {
			want := whole.Step(id, dot(whole, id, shared), -0.5)
			got := part.Step(k, dot(part, k, shared), -0.5)
			if math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("%v coordinate %d: partition step %v, whole %v", form, id, got, want)
			}
			if part.UpdateCoeff(k, got) != whole.UpdateCoeff(id, want) {
				t.Fatalf("%v coordinate %d: update coefficients differ", form, id)
			}
		}
	}
}

// Partitions over a cover of the coordinates hold every non-zero exactly
// once, and their shares of the shared vector sum to the global one.
func TestPartitionsCoverProblem(t *testing.T) {
	p := testProblem(t, 6, 40, 24, 4, 0.1)
	for _, form := range forms {
		whole := NewLoss(p, form)
		var parts [2][]int
		for c := 0; c < whole.NumCoords(); c++ {
			parts[c%2] = append(parts[c%2], c)
		}
		model := randomVec(7, whole.NumCoords())
		want := make([]float32, whole.SharedLen())
		whole.RecomputeShared(want, model)
		sum := make([]float64, whole.SharedLen())
		var nnz int64
		for _, ids := range parts {
			l := NewPartitionLoss(p, form, ids, 1)
			nnz += l.NNZ()
			local := make([]float32, len(ids))
			for k, id := range ids {
				local[k] = model[id]
			}
			share := make([]float32, l.SharedLen())
			l.RecomputeShared(share, local)
			for i, v := range share {
				sum[i] += float64(v)
			}
		}
		if nnz != whole.NNZ() {
			t.Fatalf("%v: partitions hold %d of %d non-zeros", form, nnz, whole.NNZ())
		}
		for i := range want {
			if math.Abs(sum[i]-float64(want[i])) > 1e-4*(1+math.Abs(float64(want[i]))) {
				t.Fatalf("%v shared[%d]: shares sum to %v, want %v", form, i, sum[i], want[i])
			}
		}
	}
}

// onesProblem builds an all-ones (one-hot-style) problem.
func onesProblem(t testing.TB, n, m, nnzPerRow int) *Problem {
	t.Helper()
	r := rng.New(99)
	coo := sparse.NewCOO(n, m, n*nnzPerRow)
	for i := 0; i < n; i++ {
		seen := map[int]bool{}
		for len(seen) < nnzPerRow {
			j := r.Intn(m)
			if seen[j] {
				continue
			}
			seen[j] = true
			coo.Append(i, j, 1)
		}
	}
	y := make([]float32, n)
	for i := range y {
		y[i] = float32(2*(i%2) - 1)
	}
	p, err := NewProblem(coo.ToCSR(), y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Partitions of all-ones data (the paper's footnote-2 memory optimization
// for criteo) store the pattern only, take identical steps to
// explicit-value storage and report a smaller DataBytes.
func TestAllOnesPartitionUsesPatternStorage(t *testing.T) {
	p := onesProblem(t, 60, 30, 4)
	for _, form := range forms {
		n := p.M
		if form == perfmodel.Dual {
			n = p.N
		}
		ids := make([]int, 0, n/2)
		for c := 1; c < n; c += 2 {
			ids = append(ids, c)
		}
		auto := NewPartitionLoss(p, form, ids, 1)
		if auto.ones == nil {
			t.Fatalf("%v: all-ones partition not converted to pattern storage", form)
		}
		explicit := *auto
		explicit.ones = nil
		explicit.val = make([]float32, len(auto.idx))
		for i := range explicit.val {
			explicit.val[i] = 1
		}
		shared := randomVec(5, auto.SharedLen())
		for c := 0; c < auto.NumCoords(); c++ {
			da := auto.Step(c, dot(auto, c, shared), 0.3)
			de := explicit.Step(c, dot(&explicit, c, shared), 0.3)
			if math.Float32bits(da) != math.Float32bits(de) {
				t.Fatalf("%v coordinate %d: pattern step %v != explicit %v", form, c, da, de)
			}
		}
		if auto.DataBytes() >= explicit.DataBytes() {
			t.Fatalf("%v: pattern partition (%d B) not smaller than explicit (%d B)", form, auto.DataBytes(), explicit.DataBytes())
		}
		if auto.NNZ() != explicit.NNZ() {
			t.Fatalf("NNZ changed: %d vs %d", auto.NNZ(), explicit.NNZ())
		}
	}
	// The whole-problem loss aliases the problem and converts nothing.
	if NewLoss(p, perfmodel.Primal).ones != nil {
		t.Fatal("whole-problem loss converted to pattern storage")
	}
}

func TestNonUnitPartitionKeepsValues(t *testing.T) {
	p := testProblem(t, 30, 30, 20, 4, 0.1)
	l := NewPartitionLoss(p, perfmodel.Primal, []int{0, 1, 2, 3}, 1)
	if l.ones != nil || l.val == nil {
		t.Fatal("random-valued partition wrongly converted")
	}
}

// The criteo-like generator produces all-ones data, so its partitions
// store the pattern only and shrink accordingly.
func TestCriteoPartitionsUsePatternStorage(t *testing.T) {
	a, y, err := datasets.Criteo(datasets.CriteoConfig{
		N: 2000, Fields: 8, CardinalityBase: 400, PositiveRate: 0.25, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(a, y, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, p.N/2)
	for i := range ids {
		ids[i] = 2 * i
	}
	l := NewPartitionLoss(p, perfmodel.Dual, ids, 1)
	if l.ones == nil {
		t.Fatal("criteo-like partition not pattern-only")
	}
	// Indices (4 B/nnz), pointers, norms, labels and permutation: the
	// dropped value array would have added another 4 B/nnz.
	n := int64(len(ids))
	if limit := l.NNZ()*4 + (n+1)*8 + n*8 + n*4 + n*4 + 4096; l.DataBytes() > limit {
		t.Fatalf("pattern partition unexpectedly large: %d bytes > %d", l.DataBytes(), limit)
	}
}

// σ′ scales the data curvature of the step and the shared-vector
// coefficient; σ′ < 1 means 1.
func TestPartitionSigmaPrimeDampsSteps(t *testing.T) {
	p := testProblem(t, 8, 30, 20, 4, 0.05)
	ids := []int{2, 4, 6}
	exact := NewPartitionLoss(p, perfmodel.Primal, ids, 0.5)
	damped := NewPartitionLoss(p, perfmodel.Primal, ids, 4)
	if exact.SigmaPrime() != 1 || damped.SigmaPrime() != 4 {
		t.Fatalf("σ′ = %v, %v", exact.SigmaPrime(), damped.SigmaPrime())
	}
	shared := randomVec(9, p.N)
	for c := range ids {
		de := exact.Step(c, dot(exact, c, shared), 0)
		dd := damped.Step(c, dot(damped, c, shared), 0)
		if math.Abs(float64(dd)) >= math.Abs(float64(de)) {
			t.Fatalf("coordinate %d: damped step %v not smaller than exact %v", c, dd, de)
		}
		if damped.UpdateCoeff(c, dd) != 4*dd {
			t.Fatalf("coordinate %d: coefficient not scaled by σ′", c)
		}
	}
}
