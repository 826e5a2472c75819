// Command perfbench is the repository's benchmark: one process that
// trains the paper's solvers to a certified duality gap and then serves
// the trained model through the in-process serving fleet under an
// open-loop load, reporting end-to-end metrics or, in a traced run, a
// per-layer breakdown. Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-light --seed 1 --seconds 40 --trace 0
//	bash perfbench/run.sh compare base.txt change.txt
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the same result stamped with GOMAXPROCS, NumCPU, the Go version, the
// commit, the seed, the problem shape and the serving configuration,
// which compare mode reads back. Progress goes to standard error.
//
// # What one run does
//
//  1. Set-up, part 1: generate the webspam-like dataset (datasets.Webspam,
//     24576 × 12288, 40 non-zeros per row; about 16 MB stored by rows and
//     by columns, far beyond one core's L2) and build the ridge problem
//     (λ = 1e-3), five times for a median. The matrix comes from the
//     generator's fixed default seed, so every run poses the same problem
//     and solve times do not swing with how hard one generated problem
//     happens to be.
//  2. Training: solve the problem from scratch in the primal (feature
//     coordinates, residual form) and in the dual (example coordinates)
//     with four solvers each — scd (the sequential baseline), syscd at
//     GOMAXPROCS threads, tpa-scd on a simulated M4000, and in-process
//     CoCoA (dist.NewCPUGroup, K = GOMAXPROCS, adaptive γ, sequential
//     locals) — each to its form's gap target through engine.Train, as
//     users run it. Untraced runs skip syscd, which is reported per layer
//     only. Rep i seeds every solver with repSeed(i) whatever the
//     benchmark seed, so all runs solve the same problems with the same
//     streams. Every final gap is recomputed honestly from the model
//     (Solver.Gap; for CoCoA the global model is reassembled and the
//     problem's own certificate recomputes the shared vector, which may
//     exceed the collective gap CoCoA stopped on by its float32 drift,
//     allowed up to 1%) and must meet the target, else the run fails.
//  3. Set-up, part 2: build the serving model from the primal scd weights
//     through the checkpoint codec (split into shards for the sharded
//     workload), start the replicas (serve.NewServer) and the front end
//     (route.New or shard.NewAggregator) on loopback TCP with the
//     defaults cmd/predserve and cmd/predrouter apply, and poll every
//     /readyz until ready; five times for a median. Then warm up (4% of
//     --seconds, closed loop).
//  4. Twelve slices, each a training rep (step 2 with the rep's solver
//     seeds) followed by an open-loop slice: a seeded Poisson schedule at
//     the workload's rate, sent by a dispatcher that sleeps to each due
//     time, charged the process CPU time it took. Interleaving makes
//     every metric sample the whole run; on a shared machine speed drifts
//     over tens of seconds. The training reps are a fixed amount of work
//     and the slices share what is left of --seconds after them (at
//     least 0.5 s each), so a run measures for --seconds unless the reps
//     alone take longer. The load generator uses GOMAXPROCS
//     connections and worker goroutines. Every served margin must be
//     Float64bits-equal to the in-process Model.Margin of the unsharded
//     model, else the run fails; transport errors and non-200 answers
//     count as failed operations.
//
// A traced run (--trace 1) runs six training reps with every solver and
// its layers timed, then an untraced (50% of --seconds) and a traced
// (15%) open-loop phase whose dispatcher spins the last stretch to each
// due time, so that latency is not the timer's overshoot.
//
// # Workloads
//
// Both workloads run the same training suite (steps 2 and 4), which exercises
// engine, gpusim, dist and cluster and no serving layer, so a serving
// change should leave the training metrics unchanged on both. They
// differ in the traffic the fleet serves:
//
//   - serve-light: 1-row JSON requests through route.Router to 2
//     full-model replicas, open loop at 300 requests/s (about a quarter
//     of the closed-loop capacity of two connections on two cores). The
//     batcher queue is nearly always empty, so the MaxWait timer floor
//     and per-hop overhead dominate. This is the plain replicated front
//     end that a router/aggregator merge must not slow.
//   - serve-heavy: 64-row requests (the default MaxBatch) through
//     shard.Aggregator over K = 2 shard groups × 2 replicas, open loop at
//     60 requests/s (about a fifth of closed-loop capacity). Each request
//     fills a batch by itself, so the batcher timer is bypassed; time goes
//     to JSON parsing (three times per ~40 KB body), fan-out,
//     CombineMargins and re-encoding.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s: dataset, problem, serving model and fleet up to first ready,
//     wall time (median of five).
//   - {primal,dual}_{seq,tpascd,cocoa}_cpu_s: process CPU time, user plus
//     system, from solver construction to the certified target (median
//     of the twelve solves): what a solve costs.
//   - rows_per_cpu_s: rows answered correctly per second of process CPU
//     time in the open-loop slices at the workload's rate (median of the
//     twelve slices): what serving costs. The load generator runs in the
//     same process and its share is included.
//   - heap_peak_mb: highest Go heap in use during training and serving.
//
// The times are CPU times because on a shared virtual machine wall time
// measures the neighbours as much as the program: the kernel leaves time
// the hypervisor steals out of a process's CPU time, but not out of the
// wall clock. On a two-core shared VM, five runs of the same code spread
// the median wall-clock primal CoCoA solve by 42% of its median (the
// distance between quartiles) and its CPU time by 8%, and serve-heavy's
// open-loop p50 by 28%; between two batches of runs that p50's median
// moved from 9.9 to 5.6 ms.
// Wall times are still reported per layer (engine.solve.*, loadgen.*).
// CPU time does not show a solver that waits longer at a barrier, and it
// counts the runtime's spinning while it waits for wake-ups; the serving
// slices keep that share fixed by sending at a fixed rate for a fixed
// time, where a closed loop would send fewer requests on a slow machine
// and charge each more of the idle spinning.
//
// Failures are the result's attempted and failed counts: requests that
// met a transport error or a non-200 answer, and solves that ended
// uncertified.
//
// # Per-layer metrics (--trace 1), and what each should move
//
// A traced run times calls into each layer's public functions from
// outside the program: an engine.Solver decorator passed to
// engine.Train, a dist.Config.WrapComm collective wrapper, a
// route.Config.Transport RoundTripper wrapper, and http.Handler
// wrappers around serve.Server and the router or aggregator.
//
//   - engine.solve.{f}.{d}_s is the wall time of the solve
//     (f = primal|dual, d = seq|syscd|tpascd|cocoa).
//   - engine.epoch/gap.{f}.{d}.ms and engine.epochs.{f}.{d} move
//     {f}_{d}_cpu_s (d = seq|syscd|tpascd).
//   - gpusim.{f}.elements_per_epoch, atomics_per_epoch and
//     modeled_epoch_ms are kernel counts that stay fixed while
//     {f}_tpascd_cpu_s moves.
//   - dist.round/local/gap.{f}.ms, dist.rounds.{f}, dist.gamma.{f}.mean and
//     cluster.wait/bytes/calls.{f}.* move {f}_cocoa_cpu_s.
//   - datasets.generate_s and ridge.problem_s move setup_s.
//   - router.request.self_ms (front-end span minus the union of its
//     attempt spans) moves rows_per_cpu_s and loadgen.p50_ms on
//     serve-heavy and should show little on serve-light.
//   - route.attempt.ms, route.attempts_per_request (per fan-out leg),
//     route.hedge_frac, route.retry_frac and route.useful_frac (legs /
//     attempts) move the latency tail (loadgen.p99_ms) on both workloads;
//     hedges also cost rows_per_cpu_s.
//   - network.ms (union of attempts minus union of serve.request spans)
//     moves loadgen.p50_ms.
//   - serve.request.ms, serve.batch.queue_wait_ms and serve.batch.rows
//     (from Server.Metrics histograms), serve.score.us_per_row
//     (Model.Score over the corpus) and serve.codec.ms (request minus
//     queue minus score): queue wait should move loadgen.p50_ms on
//     serve-light and be near zero on serve-heavy; codec and score time
//     move rows_per_cpu_s on serve-heavy.
//   - loadgen.p50_ms and loadgen.p99_ms (open-loop client latency from
//     each request's due time, untraced phase), loadgen.late_p99_ms,
//     loadgen.sent, go.alloc_kb_per_request, unattributed.ms (client
//     latency minus the front-end span) and trace.overhead_ms (traced
//     minus untraced p50).
//
// The traced run checks its own accounting: each training phase's
// construction, epoch and gap time must cover its wall time to within 2%
// (train.unattributed.max_frac), and per request unattributed + router
// self + network + serve.request must add up to the client latency to
// within 1%, with no request missing its spans.
//
// # Why latency and the syscd times are per-layer only
//
// On a two-core virtual machine shared with other tenants, open-loop
// latency (p50 on serve-heavy, whose requests are CPU-bound; p99 on
// both) and the syscd solves (whose epoch counts swing with thread
// interleaving) spread across runs of the same code by more than the 25%
// largest bound a gated metric may have, so they are reported in traced
// runs (loadgen.p50_ms, loadgen.p99_ms, engine.solve.{f}.syscd_s) and
// not gated.
package main
