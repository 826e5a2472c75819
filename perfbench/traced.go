package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"
)

// Shares of --seconds for the two open-loop phases of a traced run.
const (
	untracedShare = 0.5
	tracedShare   = 0.15
)

// tracedServing runs an untraced open-loop phase and then a traced one
// on the same fleet and derives the serving per-layer metrics. The
// traced phase's client latency is split per request along its critical
// path into
//
//	unattributed   client total − router.request
//	router self    router.request − union of its attempts
//	network        union of attempts − union of their serve.request spans
//	serve.request  union of serve.request spans
//
// and the run fails unless the parts add up to the client total within
// sumTol and every request produced its front-end and attempt spans.
func (r *runner) tracedServing(fl *fleet, tr *spanTracer, cl *http.Client, c *corpus) error {
	threads := runtime.GOMAXPROCS(0)
	legs := max(r.w.shards, 1)

	sched := poissonSchedule(r.w.rate, time.Duration(untracedShare*float64(r.budget)), len(c.bodies), r.seed)
	r.digests["schedule"] = scheduleDigest(sched)
	runtime.GC()
	a0 := readAllocBytes()
	untraced := r.tally(c, openLoop(cl, fl.url, c, sched, threads, spinWindow, nil))
	allocKB := float64(readAllocBytes()-a0) / 1024 / float64(len(untraced))
	p50u, _ := percentile(latenciesMS(untraced), 0.5)
	var late []float64
	for _, o := range untraced {
		late = append(late, ms(o.start.Sub(o.due)))
	}
	p99u, ok := percentile(latenciesMS(untraced), 0.99)
	latep99, lateOK := percentile(late, 0.99)
	if !ok || !lateOK {
		r.logf("loadgen p99s rest on %d samples, fewer than %d beyond them", len(untraced), minBeyond)
	}

	retries0, hedges0 := fl.routeCounts()
	ws0, wn0, rs0, bn0 := fl.batchTotals()
	runtime.GC()
	tr.on.Store(true)
	var ids atomic.Uint64
	traced := r.tally(c, openLoop(cl, fl.url, c, poissonSchedule(r.w.rate,
		time.Duration(tracedShare*float64(r.budget)), len(c.bodies), r.seed+1), threads, spinWindow, &ids))
	tr.on.Store(false)
	retries1, hedges1 := fl.routeCounts()
	ws1, wn1, rs1, bn1 := fl.batchTotals()
	p50t, _ := percentile(latenciesMS(traced), 0.5)

	bd := tr.breakdown(traced)
	if err := bd.check(); err != nil {
		r.problem("%v", err)
	}
	if bd.n == 0 {
		return nil
	}
	mean := bd.mean
	r.logf("traced %d requests: client %.3f ms = unattributed %.3f + router self %.3f + network %.3f + serve %.3f",
		bd.n, mean(bd.total), mean(bd.unattr), mean(bd.self), mean(bd.network), mean(bd.serve))

	queueMS := 0.0
	if wn1 > wn0 {
		queueMS = 1000 * (ws1 - ws0) / float64(wn1-wn0)
	}
	batchRows := 0.0
	if bn1 > bn0 {
		batchRows = (rs1 - rs0) / float64(bn1-bn0)
	}
	scoreUS := scoreMicrosPerRow(fl, c)

	r.put("router.request.self_ms", "ms", mean(bd.self))
	r.put("route.attempt.ms", "ms", bd.attemptMS/float64(bd.attempts))
	r.put("route.attempts_per_request", "count", float64(bd.attempts)/float64(bd.n*legs))
	r.put("route.hedge_frac", "1", float64(hedges1-hedges0)/float64(bd.attempts))
	r.put("route.retry_frac", "1", float64(retries1-retries0)/float64(bd.attempts))
	r.put("route.useful_frac", "1", float64(bd.n*legs)/float64(bd.attempts))
	r.put("network.ms", "ms", mean(bd.network))
	r.put("serve.request.ms", "ms", mean(bd.serve))
	r.put("serve.batch.queue_wait_ms", "ms", queueMS)
	r.put("serve.batch.rows", "count", batchRows)
	r.put("serve.score.us_per_row", "us", scoreUS)
	r.put("serve.codec.ms", "ms", mean(bd.serve)-queueMS-scoreUS*float64(c.rows)/1000)
	r.put("loadgen.p50_ms", "ms", p50u)
	r.put("loadgen.p99_ms", "ms", p99u)
	r.put("loadgen.late_p99_ms", "ms", latep99)
	r.put("loadgen.sent", "count", float64(len(traced)))
	r.put("go.alloc_kb_per_request", "kB", allocKB)
	r.put("unattributed.ms", "ms", mean(bd.unattr))
	r.put("trace.overhead_ms", "ms", p50t-p50u)
	return nil
}

// serveBreakdown sums, over the traced requests with complete span
// sets, the client latency and its critical-path parts (all in ms).
type serveBreakdown struct {
	n, attempts, missing                int
	total, unattr, self, network, serve float64
	attemptMS                           float64
}

func (b serveBreakdown) mean(x float64) float64 { return x / float64(b.n) }

// check fails when a request lacks spans or the parts do not add up to
// the client total within sumTol.
func (b serveBreakdown) check() error {
	if b.n == 0 {
		return fmt.Errorf("traced phase produced no complete request traces")
	}
	if b.missing > 0 {
		return fmt.Errorf("%d of %d traced requests lack front-end, attempt or serve spans", b.missing, b.n+b.missing)
	}
	parts := b.mean(b.unattr) + b.mean(b.self) + b.mean(b.network) + b.mean(b.serve)
	if math.Abs(parts-b.mean(b.total)) > sumTol*b.mean(b.total) {
		return fmt.Errorf("serving parts sum to %.4f ms, client total %.4f ms (tolerance %.0f%%)", parts, b.mean(b.total), 100*sumTol)
	}
	return nil
}

// breakdown joins each successful request's client timing with the
// spans the fleet's wrappers recorded for it.
func (t *spanTracer) breakdown(out []outcome) serveBreakdown {
	var b serveBreakdown
	for _, o := range out {
		if o.failed {
			continue
		}
		t.mu.Lock()
		rec := t.reqs[o.id]
		t.mu.Unlock()
		if rec == nil {
			b.missing++
			continue
		}
		rec.mu.Lock()
		front := rec.front
		var att, srv []interval
		for _, at := range rec.attempts {
			at.mu.Lock()
			sp := at.span
			if !at.done || sp.hi > front.hi {
				sp.hi = front.hi // a hedge loser still draining
			}
			att = append(att, sp)
			if at.serve.hi > 0 {
				srv = append(srv, at.serve)
			}
			at.mu.Unlock()
		}
		rec.mu.Unlock()
		if front.hi == 0 || len(att) == 0 || len(srv) == 0 {
			b.missing++
			continue
		}
		client := interval{int64(o.start.Sub(t.base)), int64(o.end.Sub(t.base))}
		u := unionLen(att, front)
		su := unionLen(srv, front)
		b.n++
		b.attempts += len(att)
		for _, sp := range att {
			b.attemptMS += ms(time.Duration(sp.len()))
		}
		b.total += ms(time.Duration(client.len()))
		b.unattr += ms(time.Duration(client.len() - front.len()))
		b.self += ms(time.Duration(selfTime(front, att)))
		b.network += ms(time.Duration(u - su))
		b.serve += ms(time.Duration(su))
	}
	return b
}

// scoreMicrosPerRow times Model.Score in-process over the corpus rows on
// each model the fleet serves, returning the mean cost per row.
func scoreMicrosPerRow(fl *fleet, c *corpus) float64 {
	var sum float64
	for _, m := range fl.models {
		rows := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			for i := range c.idx {
				m.Score(c.idx[i], c.val[i])
			}
			rows += len(c.idx)
		}
		sum += float64(time.Since(t0).Microseconds()) / float64(rows)
	}
	return sum / float64(len(fl.models))
}
