package tpascd_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tpascd"
)

// buildDistworker compiles cmd/distworker into a temp dir and returns the
// binary path.
func buildDistworker(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "distworker")
	build := exec.Command("go", "build", "-o", bin, "./cmd/distworker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// runDistCluster launches one distworker process per rank (master on a
// fresh loopback port, workers dialing it) and returns each rank's full
// stdout. extra, when non-nil, appends per-rank flags.
func runDistCluster(t *testing.T, bin string, size int, common []string, extra func(rank int) []string) []string {
	t.Helper()
	outs := make([]string, size)
	margs := append([]string{"-rank", "0", "-listen", "127.0.0.1:0"}, common...)
	if extra != nil {
		margs = append(margs, extra(0)...)
	}
	master := exec.Command(bin, margs...)
	stdout, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var masterErr bytes.Buffer
	master.Stderr = &masterErr
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}

	// First line announces the bound address.
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		master.Wait()
		t.Fatalf("master produced no output (stderr: %s)", masterErr.String())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 2 || fields[0] != "LISTENING" {
		t.Fatalf("unexpected master banner %q", sc.Text())
	}
	addr := fields[1]

	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			wargs := append([]string{"-rank", fmt.Sprint(r), "-addr", addr}, common...)
			if extra != nil {
				wargs = append(wargs, extra(r)...)
			}
			w := exec.Command(bin, wargs...)
			out, err := w.CombinedOutput()
			if err != nil {
				t.Errorf("rank %d: %v\n%s", r, err, out)
				return
			}
			outs[r] = strings.TrimSpace(string(out))
		}(r)
	}

	var rest []string
	for sc.Scan() {
		rest = append(rest, sc.Text())
	}
	wg.Wait()
	if err := master.Wait(); err != nil {
		t.Fatalf("master exited: %v (stderr: %s)", err, masterErr.String())
	}
	if t.Failed() {
		t.FailNow()
	}
	outs[0] = strings.Join(rest, "\n")
	return outs
}

// resultGap extracts the gap= value from a rank's RESULT line.
func resultGap(t *testing.T, out string) float64 {
	t.Helper()
	for _, f := range strings.Fields(out) {
		if strings.HasPrefix(f, "gap=") {
			g, err := strconv.ParseFloat(strings.TrimPrefix(f, "gap="), 64)
			if err != nil {
				t.Fatalf("bad gap in %q: %v", out, err)
			}
			return g
		}
	}
	t.Fatalf("no gap in output %q", out)
	return 0
}

// TestMultiProcessCluster builds cmd/distworker and runs a real 3-process
// training cluster over TCP on loopback — the paper's deployment shape
// (one OS process per worker) end to end. All ranks must agree on the
// collective duality gap.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildDistworker(t)
	const size = 3
	common := []string{"-size", fmt.Sprint(size), "-epochs", "15",
		"-n", "1024", "-m", "512", "-nnz", "12", "-seed", "7"}
	outs := runDistCluster(t, bin, size, common, nil)

	g0 := resultGap(t, outs[0])
	for r := 1; r < size; r++ {
		if gr := resultGap(t, outs[r]); gr != g0 {
			t.Fatalf("rank %d gap %v != master %v (lines: %q vs %q)", r, gr, g0, outs[r], outs[0])
		}
	}
}

// TestMultiProcessCheckpointResume interrupts a real TCP cluster halfway
// through training, then restarts every process with -resume and checks
// the continued run reaches the same duality gap as an uninterrupted one.
// The RESUMED banner distinguishes a genuine resume from a silent
// from-scratch retrain (which, with shared seeds, would also match).
func TestMultiProcessCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildDistworker(t)
	dir := t.TempDir()
	const size = 3
	common := []string{"-size", fmt.Sprint(size),
		"-n", "1024", "-m", "512", "-nnz", "12", "-seed", "7", "-adaptive=false"}
	ckpt := func(r int) []string {
		return []string{"-checkpoint", filepath.Join(dir, fmt.Sprintf("r%d.ckpt", r))}
	}

	full := runDistCluster(t, bin, size, append([]string{"-epochs", "12"}, common...), nil)
	runDistCluster(t, bin, size, append([]string{"-epochs", "6"}, common...), ckpt)
	resumed := runDistCluster(t, bin, size, append([]string{"-epochs", "12"}, common...),
		func(r int) []string { return append(ckpt(r), "-resume") })

	for r := 0; r < size; r++ {
		want := fmt.Sprintf("RESUMED rank=%d epoch=6", r)
		if !strings.Contains(resumed[r], want) {
			t.Fatalf("rank %d output %q missing %q", r, resumed[r], want)
		}
	}
	gFull := resultGap(t, full[0])
	gRes := resultGap(t, resumed[0])
	if diff := math.Abs(gFull - gRes); diff > 1e-3*math.Abs(gFull)+1e-12 {
		t.Fatalf("resumed gap %v differs from uninterrupted %v by %v", gRes, gFull, diff)
	}
}

// scrapeMetrics fetches addr's Prometheus exposition and parses every
// sample line into name (labels included) → value.
func scrapeMetrics(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("unparseable sample %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("unparseable value in %q: %v", line, err)
		}
		m[line[:sp]] = v
	}
	return m, nil
}

// metricsBanner reads a "METRICS addr" line from sc.
func metricsBanner(t *testing.T, sc *bufio.Scanner, who string) string {
	t.Helper()
	if !sc.Scan() {
		t.Fatalf("%s: no METRICS banner", who)
	}
	fields := strings.Fields(sc.Text())
	if len(fields) != 2 || fields[0] != "METRICS" {
		t.Fatalf("%s: unexpected banner %q", who, sc.Text())
	}
	return fields[1]
}

// TestMultiProcessMetricsEndpoint runs a chaos-injected two-process
// cluster with -metrics-addr on both ranks and scrapes their Prometheus
// endpoints: the worker (started before the master listens, with delay
// faults plus a mid-run kill) must expose nonzero dial-retry,
// injected-fault, and peer-failure counters along with populated
// per-collective latency histograms; the master must expose the peer
// failure and collective errors the kill caused. -metrics-linger keeps
// both endpoints scrapeable after the processes have died.
func TestMultiProcessMetricsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildDistworker(t)

	// Reserve a port so the worker can start dialing (and accruing
	// retries) before the master listens.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	common := []string{"-size", "2", "-epochs", "50", "-n", "512", "-m", "256",
		"-nnz", "8", "-seed", "7", "-timeout", "5s",
		"-metrics-addr", "127.0.0.1:0", "-metrics-linger", "30s"}

	worker := exec.Command(bin, append([]string{"-rank", "1", "-addr", addr,
		"-chaos-delay", "1", "-chaos-max-delay", "2ms",
		"-chaos-kill-at", "14", "-chaos-seed", "3"}, common...)...)
	wout, err := worker.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	worker.Stderr = io.Discard
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { worker.Process.Kill(); worker.Wait() }()
	workerMetrics := metricsBanner(t, bufio.NewScanner(wout), "worker")

	// Let the worker fail a few dials before the master appears.
	time.Sleep(400 * time.Millisecond)

	master := exec.Command(bin, append([]string{"-rank", "0", "-listen", addr}, common...)...)
	mout, err := master.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	master.Stderr = io.Discard
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { master.Process.Kill(); master.Wait() }()
	msc := bufio.NewScanner(mout)
	if !msc.Scan() || !strings.HasPrefix(msc.Text(), "LISTENING ") {
		t.Fatalf("master banner %q", msc.Text())
	}
	masterMetrics := metricsBanner(t, msc, "master")

	// Poll each endpoint until the fault the chaos config guarantees has
	// been recorded (the linger window keeps the endpoints up long after
	// both ranks have died).
	waitFor := func(addr, name string, min float64) map[string]float64 {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			m, err := scrapeMetrics(addr)
			if err == nil && m[name] >= min {
				return m
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %v on %s (last %v, err %v)", name, min, addr, m[name], err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	wm := waitFor(workerMetrics, `cluster_chaos_injected_total{fault="kill",rank="1"}`, 1)
	if wm[`cluster_dial_retries_total{rank="1"}`] < 1 {
		t.Errorf("worker dial retries %v, want >= 1", wm[`cluster_dial_retries_total{rank="1"}`])
	}
	if wm[`cluster_chaos_injected_total{fault="delay",rank="1"}`] < 1 {
		t.Errorf("worker delay injections %v, want >= 1", wm[`cluster_chaos_injected_total{fault="delay",rank="1"}`])
	}
	if wm[`cluster_peer_failures_total{rank="1"}`] < 1 {
		t.Errorf("worker peer failures %v, want >= 1", wm[`cluster_peer_failures_total{rank="1"}`])
	}
	if wm[`cluster_bytes_sent_total{rank="1"}`] <= 0 || wm[`cluster_bytes_recv_total{rank="1"}`] <= 0 {
		t.Errorf("worker bytes sent/recv %v/%v, want > 0",
			wm[`cluster_bytes_sent_total{rank="1"}`], wm[`cluster_bytes_recv_total{rank="1"}`])
	}
	if n := wm[`cluster_collective_latency_seconds_count{op="reduce",rank="1"}`]; n <= 0 {
		t.Errorf("worker reduce latency count %v, want > 0", n)
	}
	if s := wm[`cluster_collective_latency_seconds_sum{op="reduce",rank="1"}`]; s <= 0 {
		t.Errorf("worker reduce latency sum %v, want > 0 (chaos delays must land in the histogram)", s)
	}

	mm := waitFor(masterMetrics, `cluster_peer_failures_total{rank="0"}`, 1)
	if mm[`cluster_collective_errors_total{rank="0"}`] < 1 {
		t.Errorf("master collective errors %v, want >= 1", mm[`cluster_collective_errors_total{rank="0"}`])
	}
	if mm[`cluster_bytes_sent_total{rank="0"}`] <= 0 || mm[`cluster_bytes_recv_total{rank="0"}`] <= 0 {
		t.Errorf("master bytes sent/recv %v/%v, want > 0",
			mm[`cluster_bytes_sent_total{rank="0"}`], mm[`cluster_bytes_recv_total{rank="0"}`])
	}
	if n := mm[`cluster_collective_latency_seconds_count{op="broadcast",rank="0"}`]; n <= 0 {
		t.Errorf("master broadcast latency count %v, want > 0", n)
	}

	// The runtime collector samples into the same rank-labeled registry.
	if g := wm[`go_goroutines{rank="1"}`]; g < 1 {
		t.Errorf("worker go_goroutines %v, want >= 1", g)
	}

	// Both ranks must advertise the same run correlation ID through the
	// run_info info-metric — that is what makes their scrapes joinable.
	runLabel := func(m map[string]float64, who string) string {
		t.Helper()
		for k := range m {
			if !strings.HasPrefix(k, "run_info{") {
				continue
			}
			if i := strings.Index(k, `run="`); i >= 0 {
				rest := k[i+len(`run="`):]
				return rest[:strings.Index(rest, `"`)]
			}
		}
		t.Fatalf("%s: no run_info series in %v", who, m)
		return ""
	}
	wRun, mRun := runLabel(wm, "worker"), runLabel(mm, "master")
	if len(wRun) != 16 || wRun != mRun {
		t.Errorf("run_info mismatch: worker %q, master %q", wRun, mRun)
	}
}

// TestMultiProcessTraceReport runs a real 3-process chaos-delay cluster
// with -trace-jsonl on every rank, then feeds the per-rank span files
// through the actual obsreport binary: the merged report must cover all
// three ranks under one run ID, with a complete monotone round timeline
// and a nonzero communication share on every rank.
func TestMultiProcessTraceReport(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildDistworker(t)
	dir := t.TempDir()
	const size, epochs = 3, 10
	common := []string{"-size", fmt.Sprint(size), "-epochs", fmt.Sprint(epochs),
		"-n", "1024", "-m", "512", "-nnz", "12", "-seed", "7",
		"-chaos-delay", "0.5", "-chaos-max-delay", "2ms"}
	tracePath := func(r int) string { return filepath.Join(dir, fmt.Sprintf("rank%d.jsonl", r)) }
	runDistCluster(t, bin, size, common, func(r int) []string {
		return []string{"-trace-jsonl", tracePath(r), "-chaos-seed", fmt.Sprint(11 + r)}
	})

	rbin := filepath.Join(t.TempDir(), "obsreport")
	if out, err := exec.Command("go", "build", "-o", rbin, "./cmd/obsreport").CombinedOutput(); err != nil {
		t.Fatalf("build obsreport: %v\n%s", err, out)
	}
	raw, err := exec.Command(rbin, "-json", tracePath(0), tracePath(1), tracePath(2)).Output()
	if err != nil {
		t.Fatalf("obsreport: %v", err)
	}
	var rep tpascd.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("obsreport output: %v\n%s", err, raw)
	}

	// One run, all ranks. (Analyze itself rejects mixed run IDs, so a
	// successful report already proves the handshake propagated one ID.)
	if len(rep.Run) != 16 {
		t.Fatalf("run ID %q", rep.Run)
	}
	if len(rep.Ranks) != size {
		t.Fatalf("ranks %v", rep.Ranks)
	}

	// Complete, monotone round timeline: every epoch present in order and
	// reported by every rank.
	if len(rep.Rounds) != epochs {
		t.Fatalf("%d rounds, want %d", len(rep.Rounds), epochs)
	}
	prevEnd := 0.0
	for i, rd := range rep.Rounds {
		if rd.Epoch != i+1 {
			t.Fatalf("round %d has epoch %d", i, rd.Epoch)
		}
		if rd.Ranks != size {
			t.Fatalf("epoch %d reported by %d ranks", rd.Epoch, rd.Ranks)
		}
		if rd.EndS < prevEnd {
			t.Fatalf("epoch %d ends at %v before previous round's end %v", rd.Epoch, rd.EndS, prevEnd)
		}
		prevEnd = rd.EndS
	}

	// Collectives (with injected delays) must show up in every rank's
	// communication share, and the shares must account for all time.
	for _, rs := range rep.RankStats {
		if rs.CommShare <= 0 {
			t.Errorf("rank %d communication share %v, want > 0", rs.Rank, rs.CommShare)
		}
		if sum := rs.ComputeShare + rs.CommShare + rs.OtherShare; math.Abs(sum-1) > 1e-12 {
			t.Errorf("rank %d shares sum to %v", rs.Rank, sum)
		}
	}
}

// TestMultiProcessShardOutParity is the shard-native training
// acceptance test. A real 3-process TCP cluster trains the primal form
// over the contiguous partition with -shard-out, so each rank writes
// serving shard rank-of-3 directly — no process ever holds the full
// weight vector, and the plan fingerprint is computed cooperatively.
// Then:
//
//  1. every rank-written shard file is bitwise identical to the one
//     shardsplit cuts from the single-process reference checkpoint
//     (identical training replayed in-process with the same per-rank
//     seeds — both transports reduce in rank order, so the models agree
//     bit for bit),
//  2. shardsplit -merge over the rank-written shards reassembles that
//     reference checkpoint bitwise, and
//  3. a fleet serving the rank-written shards behind the fan-out
//     aggregator returns Float64bits-identical margins to an unsharded
//     server loading the reference checkpoint, over a fixed corpus,
//     with zero failed requests.
func TestMultiProcessShardOutParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildDistworker(t)
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shards")
	const (
		size   = 3
		epochs = 10
		seed   = 7
		nRows  = 1024
		dim    = 517 // 517 % 3 != 0: uneven shard sizes (172/172/173)
		nnz    = 12
		lambda = 0.001
	)
	common := []string{"-size", fmt.Sprint(size), "-epochs", fmt.Sprint(epochs),
		"-form", "primal", "-partition", "contiguous", "-adaptive=false",
		"-n", fmt.Sprint(nRows), "-m", fmt.Sprint(dim), "-nnz", fmt.Sprint(nnz),
		"-lambda", fmt.Sprint(lambda), "-seed", fmt.Sprint(seed),
		"-shard-out", shardDir}
	outs := runDistCluster(t, bin, size, common, nil)
	for r := 0; r < size; r++ {
		if !strings.Contains(outs[r], fmt.Sprintf("SHARD rank=%d ", r)) {
			t.Fatalf("rank %d output missing SHARD line:\n%s", r, outs[r])
		}
	}
	if !strings.Contains(outs[0], "MANIFEST ") {
		t.Fatalf("rank 0 output missing MANIFEST line:\n%s", outs[0])
	}

	// Single-process reference: the same training replayed over in-process
	// collectives with distworker's exact per-rank configuration (seed +
	// rank, contiguous partition, averaging). This process MAY hold the
	// full vector — it is the checker, not the trainer under test.
	ref := referenceShardOutModel(t, size, epochs, seed, nRows, dim, nnz, lambda)
	if len(ref) != dim {
		t.Fatalf("reference model dim %d, want %d", len(ref), dim)
	}
	refPath := filepath.Join(dir, "model.ckpt")
	if err := tpascd.SaveCheckpointFile(refPath, tpascd.Checkpoint{
		Kind: tpascd.KindRidge, Dim: dim, Vectors: [][]float32{ref},
	}); err != nil {
		t.Fatal(err)
	}

	// (1) Rank-written shard files == shardsplit output, byte for byte.
	splitDir := filepath.Join(dir, "split")
	if err := os.MkdirAll(splitDir, 0o755); err != nil {
		t.Fatal(err)
	}
	splitMan, err := tpascd.SplitServingCheckpoint(refPath, splitDir, size)
	if err != nil {
		t.Fatal(err)
	}
	var rankFiles []string
	for i := 0; i < size; i++ {
		name := tpascd.ShardCheckpointFileName("model.ckpt", i, size)
		trained, err := os.ReadFile(filepath.Join(shardDir, name))
		if err != nil {
			t.Fatalf("rank-written shard %d: %v", i, err)
		}
		split, err := os.ReadFile(filepath.Join(splitDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(trained, split) {
			t.Fatalf("shard %d: rank-written file differs from shardsplit output (%d vs %d bytes)",
				i, len(trained), len(split))
		}
		rankFiles = append(rankFiles, filepath.Join(shardDir, name))
	}

	// The cooperatively computed manifest matches the one shardsplit
	// derives from the whole vector.
	man, err := tpascd.LoadShardManifest(filepath.Join(shardDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.Fingerprint != splitMan.Fingerprint || man.Kind != splitMan.Kind ||
		man.Dim != splitMan.Dim || man.Shards != splitMan.Shards {
		t.Fatalf("manifest plan %+v != shardsplit plan %+v", man.Plan, splitMan.Plan)
	}

	// (2) Merging the rank-written shards reassembles the reference
	// checkpoint bitwise.
	mergedPath := filepath.Join(dir, "merged.ckpt")
	if err := tpascd.MergeShardCheckpoints(mergedPath, rankFiles...); err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBytes, refBytes) {
		t.Fatalf("merged rank shards differ from the single-process checkpoint (%d vs %d bytes)",
			len(mergedBytes), len(refBytes))
	}

	// (3) Serving parity: fleet over the rank-written shards vs an
	// unsharded server on the single-process checkpoint.
	whole := startServingReplica(t, refPath)
	groups := make([][]string, size)
	for i, f := range rankFiles {
		groups[i] = []string{startServingReplica(t, f)}
	}
	agg, err := tpascd.NewShardAggregator(tpascd.ShardAggregatorConfig{
		Manifest: man,
		Groups:   groups,
		Route: tpascd.RouterConfig{
			Probe: tpascd.RouterProbeConfig{
				Interval:           10 * time.Millisecond,
				Timeout:            500 * time.Millisecond,
				FailThreshold:      2,
				ProbationSuccesses: 2,
				Backoff:            tpascd.BackoffPolicy{Initial: 5 * time.Millisecond, Max: 20 * time.Millisecond},
			},
			MaxAttempts: 3,
			Deadline:    2 * time.Second,
		},
		Deadline: 5 * time.Second,
		Obs:      tpascd.NewMetricsRegistry(),
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agg.Close)
	front := httptest.NewServer(agg.Handler())
	t.Cleanup(front.Close)

	// Wait for the aggregator's health probes to admit every group.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, _ := postPredict(t, front.URL, `{"indices":[0],"values":[1]}`); st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aggregator never turned healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i, body := range predictCorpus(dim, 40) {
		refSt, refMargin := postPredict(t, "http://"+whole, body)
		gotSt, gotMargin := postPredict(t, front.URL, body)
		if refSt != http.StatusOK || gotSt != http.StatusOK {
			t.Fatalf("corpus %d: status unsharded=%d sharded=%d", i, refSt, gotSt)
		}
		if math.Float64bits(refMargin) != math.Float64bits(gotMargin) {
			t.Fatalf("corpus %d: sharded margin %v (bits %x) != unsharded %v (bits %x)",
				i, gotMargin, math.Float64bits(gotMargin), refMargin, math.Float64bits(refMargin))
		}
	}
}

// TestDistworkerShardOutFlagValidation: unsupported -shard-out combos
// must be rejected before the cluster assembles, with errors that name
// what IS supported — not surface as a hang or a garbage shard set.
func TestDistworkerShardOutFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildDistworker(t)
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file.ckpt")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"dual form", []string{"-form", "dual", "-partition", "contiguous", "-shard-out", dir},
			"requires -form primal -partition contiguous"},
		{"random partition", []string{"-form", "primal", "-partition", "random", "-shard-out", dir},
			"requires -form primal -partition contiguous"},
		{"unknown partition", []string{"-partition", "striped"},
			"supported partitions are 'random', 'contiguous'"},
		{"shard-out onto a file", []string{"-form", "primal", "-partition", "contiguous", "-shard-out", notADir},
			"not a directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-rank", "0", "-size", "3", "-listen", "127.0.0.1:0"}, tc.args...)
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err == nil {
				t.Fatalf("accepted %v:\n%s", tc.args, out)
			}
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit: %v, want code 1", err)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("error %q does not explain what is supported (want %q)", out, tc.want)
			}
		})
	}
}

// referenceShardOutModel replays distworker's -shard-out training
// in-process: K workers over in-proc collectives, contiguous partition,
// primal form, averaging aggregation, and distworker's per-rank solver
// seeds (seed + rank). Both transports reduce contributions in rank
// order, so the resulting models are bitwise identical to the TCP run's.
func referenceShardOutModel(t *testing.T, size, epochs int, seed uint64, nRows, dim, nnz int, lambda float64) []float32 {
	t.Helper()
	a, y, err := tpascd.GenerateWebspam(tpascd.WebspamConfig{
		N: nRows, M: dim, AvgNNZPerRow: nnz, Skew: 1, NoiseRate: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tpascd.NewProblem(a, y, lambda)
	if err != nil {
		t.Fatal(err)
	}
	solverName, err := tpascd.CanonicalDriver("scd")
	if err != nil {
		t.Fatal(err)
	}
	parts := tpascd.PartitionContiguous(dim, size)
	comms, err := tpascd.InProcComms(size)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tpascd.ClusterConfig{Aggregation: tpascd.Averaging, Link: tpascd.Link10GbE}
	workers := make([]*tpascd.Worker, size)
	for r := 0; r < size; r++ {
		spec := tpascd.DriverSpec{Name: solverName, Threads: 1, Seed: seed + uint64(r)}
		if workers[r], err = tpascd.NewWorker(comms[r], p, tpascd.Primal, parts[r], spec, cfg); err != nil {
			t.Fatal(err)
		}
	}
	models := make([][]float32, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				if _, err := workers[r].RunEpoch(); err != nil {
					errs[r] = err
					return
				}
			}
			models[r], _ = workers[r].Snapshot()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}
	var full []float32
	for _, m := range models {
		full = append(full, m...)
	}
	return full
}

// startServingReplica serves one checkpoint file (whole model or shard)
// over HTTP on loopback and returns its address.
func startServingReplica(t *testing.T, ckptPath string) string {
	t.Helper()
	reg := tpascd.NewModelRegistry()
	if _, err := reg.LoadFile(ckptPath); err != nil {
		t.Fatal(err)
	}
	srv := tpascd.NewPredictionServer(reg, tpascd.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hsrv := &http.Server{Handler: srv.Handler()}
	go hsrv.Serve(ln)
	t.Cleanup(func() { hsrv.Close(); srv.Close() })
	return ln.Addr().String()
}

// predictCorpus builds a fixed set of single-example request bodies
// spanning the global coordinate space (deterministic LCG, sorted
// indices).
func predictCorpus(dim, n int) []string {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	bodies := make([]string, n)
	for i := range bodies {
		nnz := 1 + int(next()*20)
		seen := map[int]bool{}
		var idx []int
		for len(idx) < nnz {
			j := int(next() * float64(dim))
			if j >= dim || seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, j)
		}
		sort.Ints(idx)
		is := make([]string, len(idx))
		vs := make([]string, len(idx))
		for k, j := range idx {
			is[k] = fmt.Sprint(j)
			vs[k] = fmt.Sprintf("%.6g", next()*4-2)
		}
		bodies[i] = fmt.Sprintf(`{"indices":[%s],"values":[%s]}`,
			strings.Join(is, ","), strings.Join(vs, ","))
	}
	return bodies
}

// postPredict posts one body to a prediction endpoint and returns the
// status and the (single) returned margin.
func postPredict(t *testing.T, base, body string) (status int, margin float64) {
	t.Helper()
	resp, err := http.Post(base+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /predict: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Predictions []struct {
			Margin float64 `json:"margin"`
		} `json:"predictions"`
	}
	json.Unmarshal(raw, &parsed)
	if len(parsed.Predictions) == 1 {
		margin = parsed.Predictions[0].Margin
	}
	return resp.StatusCode, margin
}

// TestMultiProcessMasterJoinTimeout starts a master whose workers never
// arrive: it must exit non-zero with a rank-attributed join-timeout
// message instead of blocking forever.
func TestMultiProcessMasterJoinTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := buildDistworker(t)
	master := exec.Command(bin, "-rank", "0", "-size", "3", "-listen", "127.0.0.1:0",
		"-join-timeout", "500ms", "-timeout", "1s", "-n", "256", "-m", "128", "-epochs", "2")
	out, err := master.CombinedOutput()
	if err == nil {
		t.Fatalf("master succeeded without workers:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("master exit: %v, want exit code 1", err)
	}
	text := string(out)
	if !strings.Contains(text, "distworker: rank 0") {
		t.Fatalf("failure not rank-attributed:\n%s", text)
	}
	if !strings.Contains(text, "join") {
		t.Fatalf("failure does not mention the join deadline:\n%s", text)
	}
}
