package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"tpascd/internal/perfmodel"
	"tpascd/internal/ridge"
	"tpascd/internal/serve"
	"tpascd/internal/sparse"
)

// workload is one traffic mix the fleet serves after the training suite.
type workload struct {
	name     string
	rowsPer  int     // rows per request
	rate     float64 // open-loop arrivals per second
	shards   int     // 0: route.Router over full-model replicas; K: shard.Aggregator over K groups
	replicas int     // per group
	bodies   int     // distinct request bodies in the corpus
}

var workloads = map[string]workload{
	"serve-light": {name: "serve-light", rowsPer: 1, rate: 300, shards: 0, replicas: 2, bodies: 4096},
	"serve-heavy": {name: "serve-heavy", rowsPer: 64, rate: 60, shards: 2, replicas: 2, bodies: 256},
}

// Repetitions within one run; set-up and training report medians.
const (
	setupReps     = 5
	slices        = 12 // training reps, each followed by an open-loop slice
	tracedReps    = 6  // training reps of a traced run
	sliceWarm     = 100 * time.Millisecond
	warmShare     = 0.04 // share of --seconds
	minSlice      = 500 * time.Millisecond
	residueTol    = 0.02 // traced training: unattributed share of a phase's wall time
	sumTol        = 0.01 // traced serving: parts vs client total
	heapSampleGap = 5 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the stamped result line compare mode reads back.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Shape      map[string]any    `json:"shape"`
	Serving    map[string]any    `json:"serving"`
	Digests    map[string]string `json:"digests"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout))
	}
	os.Exit(runBench(os.Args[1:], os.Stdout, os.Stderr))
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "serve-light | serve-heavy")
	seed := fs.Uint64("seed", 1, "seed for the request corpus and arrival schedules")
	seconds := fs.Float64("seconds", 40, "measurement budget of the run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "perfbench: need --workload serve-light|serve-heavy, --seconds > 0, --trace 0|1\n")
		return 2
	}
	r := &runner{
		w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1,
		log: stderr, metrics: map[string]metric{},
	}
	if err := r.run(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: r.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: os.Getenv("PERFBENCH_COMMIT"), Shape: r.shape, Digests: r.digests,
		Serving: map[string]any{
			"rows_per_request": w.rowsPer, "open_loop_rps": w.rate, "shards": w.shards,
			"replicas_per_group": w.replicas, "connections": runtime.GOMAXPROCS(0),
		},
		result: result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics},
	}
	if rec.Commit == "" {
		rec.Commit = "unknown"
	}
	line, _ := json.Marshal(map[string]record{"record": rec})
	fmt.Fprintln(stdout, string(line))
	final, _ := json.Marshal(rec.result)
	fmt.Fprintln(stdout, string(final))
	if !rec.Correct {
		for _, p := range r.problems {
			fmt.Fprintf(stderr, "perfbench: %s\n", p)
		}
		return 1
	}
	return 0
}

type runner struct {
	w      workload
	seed   uint64
	budget time.Duration
	traced bool
	log    io.Writer

	metrics   map[string]metric
	shape     map[string]any
	digests   map[string]string
	attempted int
	failed    int
	problems  []string // wrong answers, uncertified gaps, broken accounting
}

func (r *runner) correct() bool { return len(r.problems) == 0 }

func (r *runner) put(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *runner) logf(format string, args ...any) { fmt.Fprintf(r.log, format+"\n", args...) }

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runner) run() error {
	threads := runtime.GOMAXPROCS(0)

	// Set-up, part 1: dataset and problem, several times for a median.
	var (
		a        *sparse.CSR
		y        []float32
		p        *ridge.Problem
		genS     []float64
		problemS []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		a, y, err = generateData()
		if err != nil {
			return err
		}
		t1 := time.Now()
		if p, err = ridge.NewProblem(a, y, ridgeLambda); err != nil {
			return err
		}
		genS = append(genS, t1.Sub(t0).Seconds())
		problemS = append(problemS, time.Since(t1).Seconds())
	}
	r.shape = map[string]any{"N": p.N, "M": p.M, "nnz": a.NNZ(), "data_bytes": a.Bytes(), "lambda": ridgeLambda}
	r.digests = map[string]string{"dataset": datasetDigest(a, y)}

	heap := startHeapSampler()

	// Training rep 0 yields the model the fleet serves.
	walls := map[string][]float64{}
	cpus := map[string][]float64{}
	layers := map[string][]float64{}
	t0 := time.Now()
	served, err := r.trainRep(p, 0, threads, walls, cpus, layers)
	trainTime := time.Since(t0)
	if err != nil {
		return err
	}
	unsharded, err := serve.NewModel(serve.KindRidge, served)
	if err != nil {
		return err
	}
	c := buildCorpus(a, unsharded, r.w.rowsPer, r.w.bodies, r.seed)
	r.digests["corpus"] = c.digest()

	// Set-up, part 2: serving model and fleet up to first ready.
	var tr *spanTracer
	if r.traced {
		tr = newSpanTracer()
	}
	var fl *fleet
	var fleetS []float64
	for i := 0; i < setupReps; i++ {
		if fl != nil {
			fl.close()
		}
		t0 := time.Now()
		if fl, err = startFleet(r.w, served, tr); err != nil {
			return err
		}
		fleetS = append(fleetS, time.Since(t0).Seconds())
	}
	defer fl.close()
	setup := make([]float64, setupReps)
	for i := range setup {
		setup[i] = genS[i] + problemS[i] + fleetS[i]
	}
	cl := loadClient(threads)
	defer cl.CloseIdleConnections()

	// Warm up connections, pools and the hedger's latency window.
	r.tally(&c, closedLoop(cl, fl.url, &c, threads, time.Duration(warmShare*float64(r.budget)), r.seed))

	if r.traced {
		for i := 1; i < tracedReps; i++ {
			if _, err := r.trainRep(p, i, threads, walls, cpus, layers); err != nil {
				return err
			}
		}
		heap.stop()
		r.put("datasets.generate_s", "s", median(genS))
		r.put("ridge.problem_s", "s", median(problemS))
		for key, v := range walls {
			f, solver, _ := strings.Cut(key, "_")
			r.put("engine.solve."+f+"."+solver+"_s", "s", median(v))
		}
		for k, v := range layers {
			if k == "train.unattributed.max_frac" {
				r.put(k, "1", maxOf(v))
				continue
			}
			r.put(k, layerUnit(k), median(v))
		}
		return r.tracedServing(fl, tr, cl, &c)
	}

	// The remaining training reps alternate with open-loop slices, so
	// every metric samples the whole run rather than one stretch of it:
	// on a shared machine speed drifts over tens of seconds. The reps are
	// a fixed amount of work; the slices share what is left of --seconds
	// after them. Each slice sends its own seeded Poisson schedule at the
	// workload's rate, with a dispatcher that sleeps rather than spins,
	// and is charged the process CPU time it took: at a fixed rate the
	// count of requests per second, and with it the runtime's wake-ups,
	// does not depend on how fast the machine is.
	start := time.Now()
	var sched []arrival
	var rates []float64
	for i := 0; i < slices; i++ {
		if i > 0 {
			t0 := time.Now()
			if _, err := r.trainRep(p, i, threads, walls, cpus, layers); err != nil {
				return err
			}
			trainTime += time.Since(t0)
		}
		runtime.GC()
		r.tally(&c, closedLoop(cl, fl.url, &c, threads, sliceWarm, r.seed+uint64(i)))
		left := r.budget - time.Since(start) - trainTime/time.Duration(i+1)*time.Duration(slices-1-i)
		sliceDur := max(left/time.Duration(slices-i), minSlice)
		s := poissonSchedule(r.w.rate, sliceDur, len(c.bodies), r.seed+uint64(i))
		sched = append(sched, s...)
		c0 := cpuNow()
		out := openLoop(cl, fl.url, &c, s, threads, 0, nil)
		cpu := cpuNow() - c0
		rate := float64(servedRows(r.tally(&c, out), r.w.rowsPer)) / cpu.Seconds()
		p50, _ := percentile(latenciesMS(out), 0.5)
		r.logf("slice %d: %d open-loop requests at %.0f/s over %.2fs, p50 %.3f ms, %.0f rows per CPU-second",
			i, len(out), r.w.rate, sliceDur.Seconds(), p50, rate)
		rates = append(rates, rate)
	}
	r.logf("measured for %.1fs of a %.0fs budget", time.Since(start).Seconds(), r.budget.Seconds())
	r.digests["schedule"] = scheduleDigest(sched)
	r.put("rows_per_cpu_s", "rows/cpu-s", median(rates))
	r.put("heap_peak_mb", "MB", heap.stop()/(1<<20))
	for key, v := range cpus {
		r.put(key+"_cpu_s", "s", median(v))
	}
	r.put("setup_s", "s", median(setup))
	return nil
}

// trainRep solves the problem once with every form × solver from
// scratch (untraced runs: the gated solvers only), each with the rep's
// solver seeds, appending wall and CPU times and traced layer figures
// under "{form}_{solver}". It returns the primal sequential model.
func (r *runner) trainRep(p *ridge.Problem, rep, threads int, walls, cpus, layers map[string][]float64) ([]float32, error) {
	var served []float32
	for _, form := range []perfmodel.Form{perfmodel.Primal, perfmodel.Dual} {
		for _, s := range solverNames {
			if !r.traced && !gated[s] {
				continue
			}
			runtime.GC() // leave no collection debt from the last phase
			ph, err := runPhase(p, form, s, threads, repSeed(rep), r.traced)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", formName(form), s, err)
			}
			key := formName(form) + "_" + s
			r.attempted++
			if !ph.ok {
				r.failed++
				r.problem("%s uncertified after %d epochs: gap %.3g > target %.3g", key, ph.epochs, ph.gap, ph.target)
			}
			if ph.model != nil {
				served = ph.model
			}
			walls[key] = append(walls[key], ph.wall.Seconds())
			cpus[key] = append(cpus[key], ph.cpu.Seconds())
			for k, v := range ph.layers {
				layers[k] = append(layers[k], v)
			}
			if r.traced {
				layers["train.unattributed.max_frac"] = append(layers["train.unattributed.max_frac"], ph.residue)
				if ph.residue > residueTol {
					r.problem("%s: layer parts cover only %.1f%% of the phase's wall time (tolerance %.0f%%)",
						key, 100*(1-ph.residue), 100*residueTol)
				}
			}
			r.logf("rep %d %-14s %4d epochs gap %.3g  wall %.3fs cpu %.3fs", rep, key, ph.epochs, ph.gap, ph.wall.Seconds(), ph.cpu.Seconds())
		}
	}
	return served, nil
}

// tally verifies outcomes against the corpus, counts them into
// attempted/failed and records wrong answers.
func (r *runner) tally(c *corpus, out []outcome) []outcome {
	for _, o := range c.verify(out) {
		r.attempted++
		if o.failed {
			r.failed++
		}
		if o.wrong != nil {
			r.problem("request %d: %v", o.id, o.wrong)
		}
	}
	return out
}

func latenciesMS(out []outcome) []float64 {
	lat := make([]float64, 0, len(out))
	for _, o := range out {
		if !o.failed {
			lat = append(lat, ms(o.latency))
		}
	}
	return lat
}

// servedRows counts the rows of the requests answered correctly.
func servedRows(out []outcome, rowsPer int) int {
	ok := 0
	for _, o := range out {
		if !o.failed && o.wrong == nil {
			ok++
		}
	}
	return ok * rowsPer
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, ".ms"), strings.HasSuffix(name, ".ms_per_round"), strings.HasSuffix(name, "modeled_epoch_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, ".mean"):
		return "1"
	case strings.HasSuffix(name, ".per_round") && strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}

// heapSampler tracks the highest heap-in-use seen while it runs.
type heapSampler struct {
	stopC chan struct{}
	wg    sync.WaitGroup
	peak  uint64 // written by the sampling goroutine, read after it exits
}

var heapInUse = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

func readHeapInUse() uint64 {
	s := []metrics.Sample{{Name: heapInUse[0]}, {Name: heapInUse[1]}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func readAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopC: make(chan struct{}), peak: readHeapInUse()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapSampleGap)
		defer t.Stop()
		for {
			select {
			case <-h.stopC:
				return
			case <-t.C:
				h.peak = max(h.peak, readHeapInUse())
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopC)
	h.wg.Wait()
	return float64(h.peak)
}
