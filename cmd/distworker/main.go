// Command distworker runs one rank of the distributed training algorithm
// as its own OS process, communicating over TCP — the same deployment
// shape as the paper's MPI cluster (one process per worker machine).
//
// Every rank deterministically regenerates the same synthetic dataset
// from the shared seed and takes its own partition, so no training data
// crosses the network — only shared-vector deltas and scalars do, exactly
// as in Algorithm 3/4.
//
// Start the master (rank 0) first; it prints the bound address workers
// must dial. Thanks to dial retry with backoff, workers may equally be
// started first if the master's address is known in advance:
//
//	distworker -rank 0 -size 4 -listen 127.0.0.1:7777
//	distworker -rank 1 -size 4 -addr 127.0.0.1:7777
//	distworker -rank 2 -size 4 -addr 127.0.0.1:7777
//	distworker -rank 3 -size 4 -addr 127.0.0.1:7777
//
// Fault tolerance: -timeout bounds every collective, so a dead or stalled
// peer surfaces as a typed, rank-attributed error (and a non-zero exit)
// instead of a hang; -join-timeout bounds cluster assembly. With
// -checkpoint FILE each rank atomically persists its model and epoch
// every -checkpoint-every rounds (temp file + rename, so a crash mid-save
// never corrupts the previous checkpoint). After a failure, restart every
// rank with the same flags plus -resume: each rank reloads its model,
// the group agrees on the checkpointed epoch, rebuilds the shared vector
// collectively and continues training where it left off:
//
//	distworker -rank 0 -size 4 -listen 127.0.0.1:7777 -checkpoint r0.ckpt -resume
//	distworker -rank 1 -size 4 -addr 127.0.0.1:7777 -checkpoint r1.ckpt -resume
//	...
//
// Observability: -metrics-addr serves this rank's Prometheus metrics
// (bytes moved, dial retries, peer failures, per-collective latency
// histograms; plus injected-fault counters under chaos), every series
// labeled with this rank, plus sampled Go runtime stats and a
// run_info{rank,run} gauge carrying the cluster's shared run ID. The
// bound address is printed as "METRICS addr" — after the LISTENING line
// on rank 0. -metrics-linger keeps the endpoint scrapeable for a grace
// period after the rank exits, so the counters of a crashed chaos run
// can still be collected. -pprof additionally mounts the runtime
// profiling handlers under /debug/pprof/ on the same address. The
// -chaos-* flags inject deterministic faults (see ChaosConfig) for
// drills and tests.
//
// -trace-jsonl FILE streams this rank's training spans (dist.round,
// dist.gap) as JSON lines, each stamped with the run ID and rank. Point
// obsreport at the per-rank files of one run for a merged timeline and
// compute/communication breakdown.
//
// Shard-native output: with -form primal -partition contiguous, rank r
// of K owns exactly the coordinate range serving shard r-of-K covers,
// so -shard-out DIR publishes each rank's trained slice directly as a
// serving shard checkpoint — atomic save, MetaShard* identity, the plan
// fingerprint computed cooperatively over the cluster (no process ever
// holds the whole weight vector) — and rank 0 writes manifest.json
// after a barrier confirms every shard file is on disk. The directory
// is immediately servable by predserve -shard/-manifest and
// predrouter -shards, with no shardsplit step:
//
//	distworker -rank 0 -size 3 -listen 127.0.0.1:7777 \
//	  -form primal -partition contiguous -shard-out /srv/model
//	distworker -rank 1 -size 3 -addr 127.0.0.1:7777 \
//	  -form primal -partition contiguous -shard-out /srv/model
//	...
//	predrouter -shards /srv/model/manifest.json ...
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"tpascd"
	"tpascd/internal/checkpoint"
)

// curRank labels every fatal diagnostic so multi-process failures are
// attributable from the interleaved stderr of a whole cluster.
var curRank int

// lingerDur keeps the -metrics-addr endpoint scrapeable for a grace
// period after the rank finishes or dies, so a monitor (or test) can
// still collect the failure counters of a crashed run.
var lingerDur time.Duration

// traceFlush, when tracing is on, drains the span sink to disk. It is
// invoked on every exit path — including fatal ones, so the spans of a
// chaos-killed rank survive for post-mortem analysis.
var traceFlush func()

// exit flushes traces, lingers (if configured), then terminates with the
// given code.
func exit(code int) {
	if traceFlush != nil {
		traceFlush()
	}
	if lingerDur > 0 {
		time.Sleep(lingerDur)
	}
	os.Exit(code)
}

func main() {
	rank := flag.Int("rank", 0, "this worker's rank in [0, size)")
	size := flag.Int("size", 2, "total number of workers")
	listen := flag.String("listen", "127.0.0.1:0", "master only: address to listen on")
	addr := flag.String("addr", "", "workers only: master address to dial")
	epochs := flag.Int("epochs", 30, "training epochs")
	formFlag := flag.String("form", "dual", "'primal' (partition features) or 'dual' (partition examples)")
	n := flag.Int("n", 8192, "dataset examples")
	m := flag.Int("m", 4096, "dataset features")
	nnz := flag.Int("nnz", 32, "average non-zeros per example")
	lambda := flag.Float64("lambda", 0.001, "regularization λ")
	solverFlag := flag.String("solver", "scd", "local CPU solver: scd | a-scd | wild | syscd")
	partitionFlag := flag.String("partition", "random", "coordinate partition: random | contiguous")
	shardOut := flag.String("shard-out", "", "directory to publish this rank's trained slice as serving shard rank-of-size (requires -form primal -partition contiguous); rank 0 also writes manifest.json")
	threads := flag.Int("threads", 1, "threads for a-scd/wild/syscd locals")
	bucket := flag.Int("bucket", 0, "syscd bucket size in coordinates (0: one cache line of weights)")
	seed := flag.Uint64("seed", 1, "shared dataset/partition seed (must agree across ranks)")
	adaptive := flag.Bool("adaptive", true, "use adaptive aggregation (Algorithm 4)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-collective deadline; a dead peer surfaces within this budget (0 disables)")
	joinTimeout := flag.Duration("join-timeout", 60*time.Second, "total budget for cluster assembly, including dial retries (0 waits forever)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file for this rank (atomic save every -checkpoint-every epochs)")
	ckptEvery := flag.Int("checkpoint-every", 5, "epochs between checkpoints")
	resume := flag.Bool("resume", false, "resume from -checkpoint instead of training from scratch (all ranks must resume together)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics for this rank on this address (empty disables)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after the rank finishes or fails")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof/ handlers on the metrics address (requires -metrics-addr)")
	traceJSONL := flag.String("trace-jsonl", "", "stream this rank's training spans as JSON lines to this file")
	chaosDrop := flag.Float64("chaos-drop", 0, "chaos: probability a collective is dropped (peer appears dead)")
	chaosDelay := flag.Float64("chaos-delay", 0, "chaos: probability a collective is delayed")
	chaosMaxDelay := flag.Duration("chaos-max-delay", 10*time.Millisecond, "chaos: maximum injected delay")
	chaosKillAt := flag.Int("chaos-kill-at", 0, "chaos: kill this rank on its Nth collective (0 disables)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "chaos: fault-injection seed (defaults to -seed plus rank)")
	flag.Parse()
	curRank = *rank
	lingerDur = *metricsLinger

	// Validate the flag combinations up front: wrong -listen/-addr pairings
	// used to surface only as a confusing mid-training hang or dial error.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *rank < 0 || *rank >= *size {
		fatal(fmt.Errorf("rank %d outside [0,%d)", *rank, *size))
	}
	if *rank == 0 && set["addr"] {
		fatal(fmt.Errorf("-addr is for workers; rank 0 listens (use -listen)"))
	}
	if *rank != 0 && set["listen"] {
		fatal(fmt.Errorf("-listen is for rank 0; workers dial the master (use -addr)"))
	}
	if *rank != 0 && *addr == "" {
		fatal(fmt.Errorf("workers need -addr"))
	}
	if *formFlag != "primal" && *formFlag != "dual" {
		fatal(fmt.Errorf("-form %q (want 'primal' or 'dual')", *formFlag))
	}
	if *partitionFlag != "random" && *partitionFlag != "contiguous" {
		fatal(fmt.Errorf("-partition %q: supported partitions are 'random', 'contiguous'", *partitionFlag))
	}
	if *shardOut != "" {
		// Shard-out publishes each rank's local model as serving shard
		// rank-of-size, which is only meaningful when that model IS a
		// contiguous slice of the serving weight vector: the primal form
		// (model = β over features; the dual form's serving weights live
		// in the shared vector, which every rank holds whole) under the
		// contiguous partition (a random partition's slice is not a shard
		// range). Reject everything else up front.
		if *formFlag != "primal" || *partitionFlag != "contiguous" {
			fatal(fmt.Errorf("-shard-out requires -form primal -partition contiguous (got -form %s -partition %s); no other combination maps a rank's model onto a serving shard range", *formFlag, *partitionFlag))
		}
		// Same atomic-save discipline as -checkpoint: shard files land via
		// temp+fsync+rename inside a directory. A path that exists as a
		// plain file cannot get those semantics.
		if fi, err := os.Stat(*shardOut); err == nil && !fi.IsDir() {
			fatal(fmt.Errorf("-shard-out %s exists and is not a directory (shard checkpoints are saved atomically into a directory)", *shardOut))
		}
	}
	// Resolve the solver through the engine registry now: a typo should
	// fail before the dataset is generated or the cluster assembles, and
	// the canonical name feeds the checkpoint kind below (aliases must not
	// fork a rank's resume identity).
	solverName, err := tpascd.CanonicalDriver(*solverFlag)
	if err != nil {
		fatal(err)
	}
	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *ckptEvery < 1 {
		fatal(fmt.Errorf("-checkpoint-every %d (want >= 1)", *ckptEvery))
	}
	if *chaosDrop < 0 || *chaosDrop > 1 || *chaosDelay < 0 || *chaosDelay > 1 {
		fatal(fmt.Errorf("chaos probabilities must be in [0,1]"))
	}
	if *pprofOn && *metricsAddr == "" {
		fatal(fmt.Errorf("-pprof requires -metrics-addr"))
	}

	// Observability: one registry per rank. Everything below threads it
	// unconditionally — a nil registry hands out no-op handles — so the
	// training path is identical whether or not metrics are exported.
	var reg *tpascd.MetricsRegistry
	metricsBound := ""
	if *metricsAddr != "" {
		// Every series this rank registers carries a rank label, so the
		// scrapes of a whole cluster land in one database without clashing.
		reg = tpascd.NewMetricsRegistry().With("rank", fmt.Sprint(*rank))
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(fmt.Errorf("metrics listener: %w", err))
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", tpascd.MetricsHandler(reg))
		if *pprofOn {
			tpascd.RegisterPprof(mux)
		}
		go http.Serve(ln, mux)
		collector := tpascd.StartRuntimeMetrics(reg, 0)
		defer collector.Stop()
		metricsBound = ln.Addr().String()
		// Workers announce the endpoint immediately (it is live during
		// dial retries); rank 0 prints it after "LISTENING addr" so that
		// line stays first on its stdout, which the harness parses.
		if *rank != 0 {
			fmt.Printf("METRICS %s\n", metricsBound)
		}
	}

	// Identical data on every rank, from the shared seed.
	a, y, err := tpascd.GenerateWebspam(tpascd.WebspamConfig{
		N: *n, M: *m, AvgNNZPerRow: *nnz, Skew: 1, NoiseRate: 0.05, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	p, err := tpascd.NewProblem(a, y, *lambda)
	if err != nil {
		fatal(err)
	}
	form := tpascd.Dual
	numCoords := p.N
	if *formFlag == "primal" {
		form = tpascd.Primal
		numCoords = p.M
	}
	parts := tpascd.PartitionRandom(numCoords, *size, *seed)
	if *partitionFlag == "contiguous" {
		parts = tpascd.PartitionContiguous(numCoords, *size)
	}

	commCfg := tpascd.DefaultCommConfig()
	commCfg.CollectiveTimeout = *timeout
	commCfg.JoinTimeout = *joinTimeout
	commCfg.Seed = *seed
	commCfg.Obs = reg

	var comm tpascd.Comm
	if *rank == 0 {
		master, bound, err := tpascd.ListenTCPConfig(*listen, *size, commCfg)
		if err != nil {
			fatal(err)
		}
		// Workers parse this line to learn where to dial.
		fmt.Printf("LISTENING %s\n", bound)
		if metricsBound != "" {
			fmt.Printf("METRICS %s\n", metricsBound)
		}
		comm = master
	} else {
		comm, err = tpascd.DialTCPConfig(*addr, *rank, *size, commCfg)
		if err != nil {
			fatal(err)
		}
	}
	defer comm.Close()

	// The master generated the run correlation ID and the handshake gave
	// it to every worker; stamp it onto this rank's metrics (the standard
	// info-metric join: run_info{rank,run} = 1) and every emitted span.
	runHex := tpascd.FormatRunID(comm.Run())
	reg.With("run", runHex).Gauge("run_info").Set(1)

	var tracer *tpascd.Tracer
	if *traceJSONL != "" {
		f, err := os.Create(*traceJSONL)
		if err != nil {
			fatal(fmt.Errorf("trace file: %w", err))
		}
		sink := tpascd.NewJSONLSink(f)
		tracer = tpascd.NewTracer(tpascd.TraceTagSink{Run: runHex, Rank: *rank, Next: sink})
		traceFlush = func() {
			sink.Flush()
			f.Close()
		}
	}

	// Chaos wraps the transport, instrumentation wraps chaos: injected
	// delays land in the latency histograms and injected kills/drops in
	// the failure counters, exactly like organic faults would.
	if *chaosDrop > 0 || *chaosDelay > 0 || *chaosKillAt > 0 {
		cseed := *chaosSeed
		if cseed == 0 {
			cseed = *seed + uint64(*rank) + 1
		}
		comm = tpascd.WrapChaos(comm, tpascd.ChaosConfig{
			Seed:      cseed,
			KillAtOp:  *chaosKillAt,
			DropProb:  *chaosDrop,
			DelayProb: *chaosDelay,
			MaxDelay:  *chaosMaxDelay,
			Obs:       reg,
		})
	}
	comm = tpascd.InstrumentComm(comm, reg)

	agg := tpascd.Averaging
	if *adaptive {
		agg = tpascd.Adaptive
	}
	cfg := tpascd.ClusterConfig{Aggregation: agg, Link: tpascd.Link10GbE, Trace: tracer}
	w, err := tpascd.NewWorker(comm, p, form, parts[*rank], tpascd.DriverSpec{
		Name: solverName, Threads: *threads, BucketSize: *bucket, Seed: *seed + uint64(*rank),
	}, cfg)
	if err != nil {
		fatal(err)
	}

	// The checkpoint kind ties a file to one rank of one run shape — the
	// local solver and partition included, since the permutation stream a
	// resume must replay and the coordinates a rank owns depend on them —
	// so a rank cannot silently resume from another rank's (or another
	// configuration's) state.
	ckptKind := fmt.Sprintf("distworker-%s-%s-%s-r%d-of%d-seed%d", *formFlag, solverName, *partitionFlag, *rank, *size, *seed)
	start := 0
	if *resume {
		model, epoch, err := loadCheckpoint(*ckptPath, ckptKind, *rank)
		if err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		// Restore the model, rebuild the shared vector collectively and
		// replay the permutation stream past the completed epochs.
		if err := w.ResumeFrom(model, epoch); err != nil {
			fatal(fmt.Errorf("resume: %w", err))
		}
		start = epoch
		fmt.Printf("RESUMED rank=%d epoch=%d\n", *rank, epoch)
	}

	for e := start + 1; e <= *epochs; e++ {
		if _, err := w.RunEpoch(); err != nil {
			fatal(fmt.Errorf("epoch %d: %w", e, err))
		}
		if *ckptPath != "" && (e%*ckptEvery == 0 || e == *epochs) {
			model, epoch := w.Snapshot()
			if err := saveCheckpoint(*ckptPath, ckptKind, model, epoch, *rank, runHex); err != nil {
				fatal(fmt.Errorf("checkpoint at epoch %d: %w", e, err))
			}
		}
	}
	gap, err := w.Gap()
	if err != nil {
		fatal(err)
	}
	if *shardOut != "" {
		if err := publishShard(comm, w, *shardOut, numCoords, *rank, *size); err != nil {
			fatal(fmt.Errorf("shard-out: %w", err))
		}
	}
	// One machine-parseable result line per rank.
	fmt.Printf("RESULT rank=%d gap=%.6e gamma=%.4f\n", *rank, gap, w.Gamma())
	if traceFlush != nil {
		traceFlush()
		traceFlush = nil
	}
	if lingerDur > 0 {
		time.Sleep(lingerDur)
	}
}

// saveCheckpoint persists the model through checkpoint.SaveFile (atomic
// temp file + fsync + rename, so a crash mid-save leaves the previous
// checkpoint intact), with the resume position — epoch, rank, run ID —
// stamped into the v3 meta block rather than smuggled as extra vectors.
func saveCheckpoint(path, kind string, model []float32, epoch, rank int, run string) error {
	c := checkpoint.Checkpoint{Kind: kind, Dim: len(model), Vectors: [][]float32{model}}
	checkpoint.TrainState{Epoch: epoch, Rank: rank, Run: run}.Stamp(&c)
	return checkpoint.SaveFile(path, c)
}

func loadCheckpoint(path, kind string, rank int) (model []float32, epoch int, err error) {
	c, err := checkpoint.LoadFile(path, kind)
	if err != nil {
		return nil, 0, err
	}
	st, ok, err := checkpoint.TrainStateOf(c)
	if err != nil {
		return nil, 0, err
	}
	if !ok || len(c.Vectors) != 1 {
		return nil, 0, fmt.Errorf("checkpoint %s: no train state in the meta block (%d vectors, %d meta entries)", path, len(c.Vectors), len(c.Meta))
	}
	if st.Rank != rank {
		return nil, 0, fmt.Errorf("checkpoint %s was written by rank %d, this is rank %d", path, st.Rank, rank)
	}
	return c.Vectors[0], st.Epoch, nil
}

// publishShard saves this rank's trained primal slice as serving shard
// rank-of-size in dir, fingerprinting the (never-materialized) full
// model cooperatively, and has rank 0 write the manifest once a barrier
// confirms every shard file is on disk — so a reader that sees
// manifest.json can load every file it names.
func publishShard(comm tpascd.Comm, w *tpascd.Worker, dir string, dim, rank, size int) error {
	model, _ := w.Snapshot()
	fp, err := tpascd.CooperativeShardFingerprint(comm, tpascd.KindRidge, dim, model)
	if err != nil {
		return err
	}
	sc, err := tpascd.NewShardCheckpoint(tpascd.KindRidge, dim, size, rank, model, fp)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file := tpascd.ShardCheckpointFileName("model.ckpt", rank, size)
	if err := checkpoint.SaveFile(filepath.Join(dir, file), sc); err != nil {
		return err
	}
	fmt.Printf("SHARD rank=%d file=%s fingerprint=%s\n", rank, file, fp)
	if err := comm.Barrier(); err != nil {
		return fmt.Errorf("awaiting peer shards: %w", err)
	}
	if rank != 0 {
		return nil
	}
	m := tpascd.ShardManifest{
		Plan: tpascd.ShardPlan{Kind: tpascd.KindRidge, Dim: dim, Shards: size, Fingerprint: fp},
	}
	for i := 0; i < size; i++ {
		m.Files = append(m.Files, tpascd.ShardCheckpointFileName("model.ckpt", i, size))
	}
	path := filepath.Join(dir, "manifest.json")
	if err := tpascd.WriteShardManifest(path, m); err != nil {
		return err
	}
	fmt.Printf("MANIFEST %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "distworker: rank %d: %v\n", curRank, err)
	exit(1)
}
