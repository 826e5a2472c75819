package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tpascd/internal/rng"
	"tpascd/internal/serve"
	"tpascd/internal/sparse"
)

// corpus is the request bodies one workload sends, each with the
// margins the unsharded model computes in-process for its rows.
type corpus struct {
	bodies [][]byte
	want   [][]float64
	rows   int // rows per body
	// idx and val hold copies of every row sent, for timing Model.Score.
	idx [][]int32
	val [][]float32
}

// buildCorpus draws rows of the training matrix (seeded) into nBodies
// JSON request bodies of rowsPer rows each.
func buildCorpus(a *sparse.CSR, m *serve.Model, rowsPer, nBodies int, seed uint64) corpus {
	r := rng.New(seed ^ 0xc0a9)
	c := corpus{rows: rowsPer}
	var b bytes.Buffer
	for i := 0; i < nBodies; i++ {
		b.Reset()
		want := make([]float64, rowsPer)
		if rowsPer > 1 {
			b.WriteString(`{"instances":[`)
		}
		for k := 0; k < rowsPer; k++ {
			idx, val := a.Row(r.Intn(a.NumRows))
			want[k] = m.Margin(idx, val)
			c.idx = append(c.idx, append([]int32(nil), idx...))
			c.val = append(c.val, append([]float32(nil), val...))
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`{"indices":[`)
			for j, x := range idx {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Itoa(int(x)))
			}
			b.WriteString(`],"values":[`)
			for j, v := range val {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
			}
			b.WriteString(`]}`)
		}
		if rowsPer > 1 {
			b.WriteString(`]}`)
		}
		c.bodies = append(c.bodies, append([]byte(nil), b.Bytes()...))
		c.want = append(c.want, want)
	}
	return c
}

// check verifies a /predict response carries exactly the expected
// margins, bit for bit.
func (c *corpus) check(body int, resp []byte) error {
	var out struct {
		Predictions []struct {
			Margin float64 `json:"margin"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		return fmt.Errorf("undecodable response: %v", err)
	}
	want := c.want[body]
	if len(out.Predictions) != len(want) {
		return fmt.Errorf("%d predictions for %d rows", len(out.Predictions), len(want))
	}
	for i, p := range out.Predictions {
		if math.Float64bits(p.Margin) != math.Float64bits(want[i]) {
			return fmt.Errorf("row %d: margin %v, in-process %v", i, p.Margin, want[i])
		}
	}
	return nil
}

func (c *corpus) digest() string {
	h := sha256.New()
	for _, b := range c.bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// datasetDigest hashes the generated matrix and labels.
func datasetDigest(a *sparse.CSR, y []float32) string {
	h := sha256.New()
	for _, p := range a.RowPtr {
		binary.Write(h, binary.LittleEndian, int64(p))
	}
	binary.Write(h, binary.LittleEndian, a.ColIdx)
	binary.Write(h, binary.LittleEndian, a.Val)
	binary.Write(h, binary.LittleEndian, y)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// arrival is one scheduled open-loop request.
type arrival struct {
	at   time.Duration // offset from the start of the phase
	body int
}

// poissonSchedule draws a seeded Poisson arrival process of the given
// rate over dur, each arrival naming a corpus body.
func poissonSchedule(rate float64, dur time.Duration, nBodies int, seed uint64) []arrival {
	r := rng.New(seed ^ 0x5c4ed)
	var out []arrival
	var t float64
	for {
		t += -math.Log(1-r.Float64()) / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, arrival{at: at, body: r.Intn(nBodies)})
	}
}

func scheduleDigest(s []arrival) string {
	h := sha256.New()
	for _, a := range s {
		binary.Write(h, binary.LittleEndian, [2]int64{int64(a.at), int64(a.body)})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// loadClient is the load generator's HTTP client: one keep-alive
// connection per worker.
func loadClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// outcome is one request as the load generator saw it.
type outcome struct {
	id      uint64
	due     time.Time
	start   time.Time
	end     time.Time
	failed  bool  // transport error or non-200
	wrong   error // a 200 whose margins disagree with the model
	latency time.Duration
	body    int    // corpus body sent
	raw     []byte // response, until verify checks it
}

// send posts one corpus body and keeps the answer for verify, so the
// check costs no CPU while other requests are in flight. A non-zero id
// is sent in the trace header so the fleet's wrappers can join spans.
func send(cl *http.Client, url string, c *corpus, body int, id uint64) outcome {
	o := outcome{id: id, body: body, start: time.Now()}
	req, err := http.NewRequest(http.MethodPost, url+"/predict", bytes.NewReader(c.bodies[body]))
	if err != nil {
		o.failed = true
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(headerReq, strconv.FormatUint(id, 10))
	}
	resp, err := cl.Do(req)
	if err != nil {
		o.end, o.failed = time.Now(), true
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.end = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		o.failed = true
		return o
	}
	o.raw = raw
	return o
}

// verify checks every answered request's margins and drops the kept
// responses.
func (c *corpus) verify(out []outcome) []outcome {
	for i := range out {
		if !out[i].failed {
			out[i].wrong = c.check(out[i].body, out[i].raw)
		}
		out[i].raw = nil
	}
	return out
}

// spinWindow is how close to an arrival's due time the dispatcher stops
// sleeping and yields instead: Go timers on small VMs overshoot short
// sleeps by up to a millisecond, which would make the generator itself
// late.
const spinWindow = 1300 * time.Microsecond

// openLoop sends the schedule from conns workers, timing each request
// from when it was due. A request whose worker pool is busy at its due
// time waits, and that wait counts in its latency and in its lateness.
// The dispatcher sleeps until spin before each due time and yields from
// there on; spin 0 only sleeps, which burns no CPU but sends late by the
// timer's overshoot.
func openLoop(cl *http.Client, url string, c *corpus, sched []arrival, conns int, spin time.Duration, ids *atomic.Uint64) []outcome {
	type job struct {
		i   int
		due time.Time
	}
	out := make([]outcome, len(sched))
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				var id uint64
				if ids != nil {
					id = ids.Add(1)
				}
				o := send(cl, url, c, sched[j.i].body, id)
				o.due = j.due
				o.latency = o.end.Sub(j.due)
				out[j.i] = o
			}
		}()
	}
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.at)
		if d := time.Until(due); d > spin {
			time.Sleep(d - spin/4)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs conns workers back to back over the corpus for dur and
// returns every outcome.
func closedLoop(cl *http.Client, url string, c *corpus, conns int, dur time.Duration, seed uint64) []outcome {
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	stop := time.Now().Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(seed ^ uint64(w+1)*0x9e37)
			var mine []outcome
			for time.Now().Before(stop) {
				o := send(cl, url, c, r.Intn(len(c.bodies)), 0)
				o.latency = o.end.Sub(o.start)
				mine = append(mine, o)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return all
}
