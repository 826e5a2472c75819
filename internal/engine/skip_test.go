package engine

import (
	"math"
	"testing"

	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/rng"
	"tpascd/internal/sparse"
)

func skipProblem(t *testing.T) *ridge.Problem {
	t.Helper()
	r := rng.New(4)
	coo := sparse.NewCOO(120, 70, 120*6)
	for i := 0; i < 120; i++ {
		for k := 0; k < 6; k++ {
			coo.Append(i, r.Intn(70), float32(r.NormFloat64()))
		}
	}
	y := make([]float32, 120)
	for i := range y {
		y[i] = float32(r.NormFloat64())
	}
	p, err := ridge.NewProblem(coo.ToCSR(), y, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type skipSolver interface {
	Solver
	SkipEpochs(n int)
}

func equalBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, uninterrupted run has %v", what, i, got[i], want[i])
		}
	}
}

// Checkpoint resume: a fresh solver given the state after n epochs and
// fast-forwarded by SkipEpochs(n) must continue exactly like the run that
// never stopped. For scd that is the whole state, bit for bit. syscd at 2
// threads deals buckets to whichever thread asks first, so its model
// depends on scheduling; there the bucket permutation drawn in each
// continued epoch must be bit for bit the uninterrupted run's.
func TestSkipEpochsContinuesUninterruptedRun(t *testing.T) {
	const n, k = 3, 4
	p := skipProblem(t)
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		for _, c := range []struct {
			name  string
			build func() skipSolver
			state bool // the trajectory is deterministic
		}{
			{DriverSequential, func() skipSolver { return NewSequential(ridge.NewLoss(p, form), 9) }, true},
			{DriverSyscd, func() skipSolver { return NewSyscd(ridge.NewLoss(p, form), 2, 4, 9) }, false},
		} {
			ref := c.build()
			for e := 0; e < n; e++ {
				ref.RunEpoch()
			}
			resumed := c.build()
			copy(resumed.Model(), ref.Model())
			copy(resumed.SharedVector(), ref.SharedVector())
			resumed.SkipEpochs(n)
			for e := 0; e < k; e++ {
				ref.RunEpoch()
				resumed.RunEpoch()
				if !c.state {
					got, want := resumed.(*Syscd).perm, ref.(*Syscd).perm
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s %v epoch %d: bucket %d is %d, uninterrupted run has %d",
								c.name, form, n+e+1, i, got[i], want[i])
						}
					}
				}
			}
			if c.state {
				equalBits(t, c.name+" model", resumed.Model(), ref.Model())
				equalBits(t, c.name+" shared", resumed.SharedVector(), ref.SharedVector())
			}
		}
	}
}
