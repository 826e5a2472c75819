package main

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"tpascd/internal/datasets"
	"tpascd/internal/serve"
)

func TestSelfTimeIsParentMinusUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		self     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {40, 60}}, 70},
		{"overlapping count once", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 20},
		{"clipped to parent", []interval{{-20, 10}, {90, 130}}, 80},
		{"outside parent", []interval{{150, 200}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"full cover", []interval{{0, 60}, {50, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.self {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.self)
		}
	}
}

func TestUnionLenMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		clip := interval{int64(r.Intn(50)), int64(50 + r.Intn(50))}
		var ivs []interval
		covered := make([]bool, 140)
		for k := r.Intn(6); k > 0; k-- {
			lo := int64(r.Intn(110))
			iv := interval{lo, lo + int64(r.Intn(20))}
			ivs = append(ivs, iv)
			for x := iv.lo; x < iv.hi; x++ {
				covered[x] = true
			}
		}
		var want int64
		for x := clip.lo; x < clip.hi; x++ {
			if covered[x] {
				want++
			}
		}
		if got := unionLen(ivs, clip); got != want {
			t.Fatalf("union of %v within %v = %d, want %d", ivs, clip, got, want)
		}
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so sorting matters
		}
		return xs
	}
	if v, ok := percentile(mk(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v ok=%v, want 990 with exactly 10 samples beyond", v, ok)
	}
	if _, ok := percentile(mk(999), 0.99); ok {
		t.Error("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if v, ok := percentile(mk(21), 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %v ok=%v, want 11", v, ok)
	}
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}

}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Reference values from statistics.quantiles(data, n=4).
	cases := []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{0.2, 0.5, 0.9, 1.3, 0.7, 0.4}, [3]float64{0.35, 0.6, 1.0}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.data, q1, q2, q3, c.want)
				break
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   string
	}{
		{"identical runs", base, "lower", 0.1, "same"},
		{"small slowdown within bound", scale(base, 1.05), "lower", 0.1, "same"},
		{"slowdown beyond bound", scale(base, 1.3), "lower", 0.1, "worse"},
		{"clear speedup", scale(base, 0.8), "lower", 0.1, "better"},
		{"higher is better", scale(base, 1.3), "higher", 0.1, "better"},
		{"drop when higher is better", scale(base, 0.7), "higher", 0.1, "worse"},
		{"spread wider than bound", []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 7}, "lower", 0.1, "unresolved"},
		{"wide spread but every run better", []float64{1, 3, 2, 1.5, 2.5, 1, 3, 2, 1.2, 2.8}, "lower", 0.1, "better"},
		{"no bound", scale(base, 2), "lower", 0, "info"},
	}
	for _, c := range cases {
		if v := judge(base, c.change, c.better, c.bound); v.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (won %d/%d, spread %.3f)", c.name, v.Verdict, c.want, v.Won, v.Pairs, v.Spread)
		}
	}
	v := judge([]float64{1, 2, 3}, []float64{1, 1, 4}, "lower", 0.5)
	if v.Won != 1 || v.Lost != 1 || v.Pairs != 3 {
		t.Errorf("pairs: won %d lost %d of %d, want 1 and 1 of 3 (ties count for neither)", v.Won, v.Lost, v.Pairs)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, y, err := generateData()
	if err != nil {
		t.Fatal(err)
	}
	b, z, err := generateData()
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := datasetDigest(a, y), datasetDigest(b, z); d1 != d2 {
		t.Fatalf("training data differs between calls: %s/%s", d1, d2)
	}
	w := make([]float32, a.NumCols)
	for j := range w {
		w[j] = float32(j%7) - 3
	}
	m, err := serve.NewModel(serve.KindRidge, w)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed uint64) (string, string) {
		c := buildCorpus(a, m, 64, 16, seed)
		s := poissonSchedule(300, 2*time.Second, len(c.bodies), seed)
		return c.digest(), scheduleDigest(s)
	}
	c1, s1 := gen(7)
	c2, s2 := gen(7)
	if c1 != c2 || s1 != s2 {
		t.Fatalf("same seed, different inputs: corpus %s/%s schedule %s/%s", c1, c2, s1, s2)
	}
	c3, s3 := gen(8)
	if c3 == c1 || s3 == s1 {
		t.Fatalf("seeds 7 and 8 share an input digest: corpus %s/%s schedule %s/%s", c1, c3, s1, s3)
	}
	if repSeed(0) == repSeed(1) {
		t.Fatal("training reps share solver seeds")
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	s := poissonSchedule(300, 20*time.Second, 10, 1)
	if n := len(s); n < 5700 || n > 6300 {
		t.Errorf("%d arrivals in 20s at 300/s", n)
	}
	for i := 1; i < len(s); i++ {
		if s[i].at < s[i-1].at {
			t.Fatal("arrivals out of order")
		}
	}
}

// TestFleetServesExactMarginsAndTracesAddUp drives both workloads'
// fleets over a small model: every answer must match the in-process
// unsharded margin bit for bit, and the traced request breakdown must
// add up to the client-observed latency.
func TestFleetServesExactMarginsAndTracesAddUp(t *testing.T) {
	a, _, err := datasets.Webspam(datasets.WebspamConfig{N: 300, M: 97, AvgNNZPerRow: 12, Skew: 1, NoiseRate: 0.05, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float32, a.NumCols)
	r := rand.New(rand.NewSource(1))
	for j := range w {
		w[j] = float32(r.NormFloat64())
	}
	m, err := serve.NewModel(serve.KindRidge, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"serve-light", "serve-heavy"} {
		wl := workloads[name]
		t.Run(name, func(t *testing.T) {
			tr := newSpanTracer()
			fl, err := startFleet(wl, w, tr)
			if err != nil {
				t.Fatal(err)
			}
			defer fl.close()
			c := buildCorpus(a, m, wl.rowsPer, 8, 3)
			cl := loadClient(2)
			defer cl.CloseIdleConnections()
			tr.on.Store(true)
			var ids atomic.Uint64
			sched := poissonSchedule(200, 200*time.Millisecond, len(c.bodies), 3)
			out := c.verify(openLoop(cl, fl.url, &c, sched, 2, spinWindow, &ids))
			tr.on.Store(false)
			if len(out) == 0 {
				t.Fatal("empty schedule")
			}
			for _, o := range out {
				if o.failed || o.wrong != nil {
					t.Fatalf("request %d: failed=%v wrong=%v", o.id, o.failed, o.wrong)
				}
			}
			bd := tr.breakdown(out)
			if err := bd.check(); err != nil {
				t.Fatal(err)
			}
			if bd.n != len(out) || bd.attempts < bd.n*max(wl.shards, 1) {
				t.Fatalf("%d of %d requests traced with %d attempts", bd.n, len(out), bd.attempts)
			}
		})
	}
}
