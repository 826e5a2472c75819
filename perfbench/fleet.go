package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpascd/internal/backoff"
	"tpascd/internal/checkpoint"
	"tpascd/internal/obs"
	"tpascd/internal/route"
	"tpascd/internal/serve"
	"tpascd/internal/shard"
)

// predserveConfig is the server configuration cmd/predserve builds from
// its default flags (-max-batch 64 -max-wait 500µs -workers 0
// -deadline 2s).
func predserveConfig() serve.ServerConfig {
	return serve.ServerConfig{
		Batcher:  serve.BatcherConfig{MaxBatch: 64, MaxWait: 500 * time.Microsecond, Workers: 0},
		Deadline: 2 * time.Second,
	}
}

// predrouterConfig is the routing configuration cmd/predrouter builds
// from its default flags.
func predrouterConfig(replicas []string, transport http.RoundTripper) route.Config {
	return route.Config{
		Replicas: replicas,
		Obs:      obs.NewRegistry(),
		Probe: route.ProbeConfig{
			Interval:           time.Second,
			Timeout:            time.Second,
			FailThreshold:      3,
			ProbationSuccesses: 2,
			Backoff:            backoff.Policy{Initial: 50 * time.Millisecond, Max: 2 * time.Second},
		},
		MaxAttempts: 3,
		RetryBudget: 0.2,
		HedgeBudget: 0.1,
		HedgeDelay:  30 * time.Millisecond,
		Deadline:    5 * time.Second,
		CacheSize:   1024,
		Seed:        1,
		Transport:   transport,
	}
}

// replica is one predserve-equivalent on a loopback TCP listener.
type replica struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
}

// fleet is the serving stack of one workload: replicas behind either a
// route.Router (shards == 0) or a shard.Aggregator, all on loopback.
type fleet struct {
	replicas []*replica
	router   *route.Router
	agg      *shard.Aggregator
	front    *http.Server
	url      string
	models   []*serve.Model // the models the replicas serve, one per shard group
	tr       *spanTracer    // nil unless built for a traced run
}

// modelFromCheckpoint builds a serving model through the checkpoint
// codec, the path predserve's -model flag takes, without touching disk.
func modelFromCheckpoint(c checkpoint.Checkpoint) (*serve.Model, error) {
	var buf bytes.Buffer
	if err := checkpoint.Save(&buf, c); err != nil {
		return nil, err
	}
	return serve.LoadModel(&buf)
}

// startFleet builds the workload's fleet serving weights and waits until
// every replica and the front end report ready. With tr non-nil every
// layer boundary is wrapped for span recording.
func startFleet(w workload, weights []float32, tr *spanTracer) (*fleet, error) {
	f := &fleet{tr: tr}
	ckpt := checkpoint.Checkpoint{Kind: serve.KindRidge, Dim: len(weights), Vectors: [][]float32{weights}}
	ckpts := []checkpoint.Checkpoint{ckpt}
	var plan shard.Plan
	if w.shards > 0 {
		var err error
		if plan, err = shard.NewPlan(ckpt, w.shards); err != nil {
			return nil, err
		}
		if ckpts, err = checkpoint.Split(ckpt, w.shards); err != nil {
			return nil, err
		}
	}
	groups := make([][]string, len(ckpts))
	for g, c := range ckpts {
		m, err := modelFromCheckpoint(c)
		if err != nil {
			return nil, err
		}
		f.models = append(f.models, m)
		for r := 0; r < w.replicas; r++ {
			rep, err := startReplica(m, tr)
			if err != nil {
				f.close()
				return nil, err
			}
			f.replicas = append(f.replicas, rep)
			groups[g] = append(groups[g], rep.addr)
		}
	}

	var transport http.RoundTripper
	if tr != nil {
		transport = tr.transport(http.DefaultTransport)
	}
	var handler http.Handler
	if w.shards == 0 {
		r, err := route.New(predrouterConfig(groups[0], transport))
		if err != nil {
			f.close()
			return nil, err
		}
		f.router, handler = r, r.Handler()
	} else {
		rcfg := predrouterConfig(nil, transport)
		rcfg.Obs = nil
		rcfg.Deadline = 2 * time.Second // predrouter -shard-deadline
		a, err := shard.NewAggregator(shard.AggregatorConfig{
			Manifest:  shard.Manifest{Plan: plan},
			Groups:    groups,
			Route:     rcfg,
			Deadline:  5 * time.Second,
			CacheSize: 1024,
			Obs:       obs.NewRegistry(),
			Seed:      1,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.agg, handler = a, a.Handler()
	}
	if tr != nil {
		handler = tr.front(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = &http.Server{Handler: handler}
	go f.front.Serve(ln)
	f.url = "http://" + ln.Addr().String()

	for _, rep := range f.replicas {
		if err := awaitReady("http://" + rep.addr); err != nil {
			f.close()
			return nil, err
		}
	}
	if err := awaitReady(f.url); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func startReplica(m *serve.Model, tr *spanTracer) (*replica, error) {
	reg := serve.NewRegistry()
	reg.Set(m)
	srv := serve.NewServer(reg, predserveConfig())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.replica(h)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return &replica{srv: srv, hs: hs, addr: ln.Addr().String()}, nil
}

var probeClient = &http.Client{Timeout: time.Second}

// awaitReady polls base's /readyz until it answers 200.
func awaitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probeClient.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s (last error %v)", base, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// close tears the fleet down and waits for its servers to stop.
func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	if f.agg != nil {
		f.agg.Close()
	}
	for _, r := range f.replicas {
		r.hs.Close()
		r.srv.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	probeClient.CloseIdleConnections()
}

// routeCounts sums the retry and hedge counters of the fleet's route
// clients.
func (f *fleet) routeCounts() (retries, hedges int64) {
	if f.router != nil {
		m := f.router.Metrics()
		return m.Retries(), m.Hedges()
	}
	for i := 0; i < f.agg.Plan().Shards; i++ {
		m := f.agg.Group(i).Metrics()
		retries += m.Retries()
		hedges += m.Hedges()
	}
	return retries, hedges
}

// batchTotals sums the replicas' queue-wait and batch-size histograms.
func (f *fleet) batchTotals() (waitSum float64, waitN int64, rowSum float64, batches int64) {
	for _, r := range f.replicas {
		qw := r.srv.Obs().Histogram("serve_queue_wait_seconds", nil)
		bs := r.srv.Obs().Histogram("serve_batch_size", nil)
		waitSum += qw.Sum()
		waitN += qw.Count()
		rowSum += bs.Sum()
		batches += bs.Count()
	}
	return
}

// Trace headers the wrappers use to join spans across layers.
const (
	headerReq     = "X-Perfbench-Req"
	headerAttempt = "X-Perfbench-Attempt"
)

// spanTracer records spans at the fleet's layer boundaries from outside
// the program: the front end's handler (router.request), each outbound
// /predict attempt of the route clients (route.attempt), and each
// replica's handler (serve.request). Recording is off until enabled, so
// one fleet serves both the untraced and traced phases of a traced run.
type spanTracer struct {
	on      atomic.Bool
	base    time.Time
	nextAtt atomic.Uint64

	mu       sync.Mutex
	reqs     map[uint64]*reqSpans
	attempts map[uint64]*attemptSpan
}

type reqSpans struct {
	mu       sync.Mutex
	front    interval
	attempts []*attemptSpan
}

type attemptSpan struct {
	mu    sync.Mutex
	span  interval
	serve interval
	done  bool
}

type ctxKey struct{}

func newSpanTracer() *spanTracer {
	return &spanTracer{base: time.Now(), reqs: map[uint64]*reqSpans{}, attempts: map[uint64]*attemptSpan{}}
}

func (t *spanTracer) now() int64 { return int64(time.Since(t.base)) }

// front wraps the router or aggregator handler.
func (t *spanTracer) front(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseUint(r.Header.Get(headerReq), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		rec := &reqSpans{}
		t.mu.Lock()
		t.reqs[id] = rec
		t.mu.Unlock()
		start := t.now()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, rec)))
		end := t.now()
		rec.mu.Lock()
		rec.front = interval{start, end}
		rec.mu.Unlock()
	})
}

// replica wraps a serve.Server handler.
func (t *spanTracer) replica(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(headerAttempt), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		t.mu.Lock()
		a := t.attempts[id]
		t.mu.Unlock()
		if a != nil {
			a.mu.Lock()
			a.serve = interval{start, end}
			a.mu.Unlock()
		}
	})
}

// transport wraps the route clients' outbound RoundTripper. An attempt
// span runs from the request's dispatch until its response body is
// drained or closed.
func (t *spanTracer) transport(next http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		rec, _ := req.Context().Value(ctxKey{}).(*reqSpans)
		if rec == nil || req.URL.Path != "/predict" {
			return next.RoundTrip(req)
		}
		id := t.nextAtt.Add(1)
		a := &attemptSpan{span: interval{t.now(), 0}}
		t.mu.Lock()
		t.attempts[id] = a
		t.mu.Unlock()
		rec.mu.Lock()
		rec.attempts = append(rec.attempts, a)
		rec.mu.Unlock()

		out := req.Clone(req.Context())
		out.Header.Set(headerAttempt, strconv.FormatUint(id, 10))
		resp, err := next.RoundTrip(out)
		if err != nil {
			a.finish(t.now())
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { a.finish(t.now()) }}
		return resp, nil
	})
}

func (a *attemptSpan) finish(at int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.done {
		a.span.hi, a.done = at, true
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends an attempt span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	end func()
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}
