package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clara/internal/server"
)

// poissonSchedule returns the send offsets of a Poisson arrival process
// at rate req/s over d, drawn from seed.
func poissonSchedule(rate float64, d time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// outcome is one request as the client saw it.
type outcome struct {
	Due, Sent, Done time.Time
	Late            time.Duration // how late the generator dispatched it
	Status          int
	Err             string  // transport error, non-200, failed job or bad body
	WorkerMs        float64 // the worker's own analysis time for the job
	CacheHit        bool
	Insights        json.RawMessage // kept for checked requests only
}

func (o outcome) latency() time.Duration { return o.Done.Sub(o.Due) }

// analyzeReply is the part of a /v1/analyze response the client reads.
type analyzeReply struct {
	Results []struct {
		Error     string          `json:"error"`
		CacheHit  bool            `json:"cache_hit"`
		ElapsedMs float64         `json:"elapsed_ms"`
		Insights  json.RawMessage `json:"insights"`
	} `json:"results"`
}

// send posts one body and fills the outcome's response fields.
func send(client *http.Client, url string, body []byte, o *outcome, keep bool) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.Err = err.Error()
		return
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.Status = resp.StatusCode
	switch {
	case err != nil:
		o.Err = err.Error()
		return
	case resp.StatusCode != http.StatusOK:
		o.Err = fmt.Sprintf("HTTP %d", resp.StatusCode)
		return
	case resp.Header.Get(server.FailedJobsHeader) != "":
		o.Err = "failed jobs: " + resp.Header.Get(server.FailedJobsHeader)
		return
	}
	var r analyzeReply
	if err := json.Unmarshal(blob, &r); err != nil || len(r.Results) != 1 {
		o.Err = fmt.Sprintf("bad response body (%v)", err)
		return
	}
	if r.Results[0].Error != "" {
		o.Err = r.Results[0].Error
		return
	}
	o.WorkerMs, o.CacheHit = r.Results[0].ElapsedMs, r.Results[0].CacheHit
	if keep {
		o.Insights = r.Results[0].Insights
	}
}

// openLoop sends reqs[i] at start+sched[i] over at most conns
// connections and waits for every reply. A dispatcher wakes at each due
// time and hands the request to a free sender; latency counts from the
// due time, so waiting for a connection counts against the system.
func openLoop(client *http.Client, url string, reqs []novelRequest, sched []time.Duration, keep map[int]bool, tr *tracer) []outcome {
	out := make([]outcome, len(sched))
	// Room for every send, so the dispatcher never waits on a busy sender.
	queue := make(chan int, len(sched))
	var wg sync.WaitGroup
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.Sent = time.Now()
				send(client, url, reqs[i].Body, o, keep[i])
				o.Done = time.Now()
				if tr != nil {
					root := tr.record("client.request", int64(i), -1, o.Due, o.Done)
					tr.record("client.send", int64(i), root, o.Sent, o.Done)
				}
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	for i, off := range sched {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		out[i].Due = due
		out[i].Late = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop keeps conns requests in flight: each sender posts the next
// unsent body as soon as its previous reply arrives, until d has passed
// or reqs run out. It returns the outcomes of the requests sent, which
// are reqs' first ones; a request is due when it is sent.
func closedLoop(client *http.Client, url string, reqs []novelRequest, d time.Duration, keep map[int]bool) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				o.Sent = time.Now()
				o.Due = o.Sent
				send(client, url, reqs[i].Body, o, keep[i])
				o.Done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), len(reqs))]
}

// chunkRates splits the outcomes' completions, in time order, into
// consecutive chunks of size and returns each chunk's completion rate
// per second. The first chunk counts from the earliest send; a last
// partial chunk, where senders run dry, is dropped unless it is the only
// one.
func chunkRates(out []outcome, size int) []float64 {
	if len(out) == 0 {
		return nil
	}
	done := make([]time.Time, len(out))
	prev := out[0].Sent
	for i, o := range out {
		done[i] = o.Done
		if o.Sent.Before(prev) {
			prev = o.Sent
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Before(done[b]) })
	size = min(size, len(done))
	var rates []float64
	for k := size; k <= len(done); k += size {
		end := done[k-1]
		rates = append(rates, float64(size)/end.Sub(prev).Seconds())
		prev = end
	}
	return rates
}

// step is one open-loop phase's verdict.
type step struct {
	Rate     float64
	Lat      summary // latency from due time, ms
	Failed   int
	Behind   bool
	Attempts int
}

// pass reports whether the step meets the latency limit with no failed
// request and no growing backlog.
func (s step) pass() bool {
	return s.Failed == 0 && !s.Behind && s.Lat.Tail <= float64(latencyLimit)/1e6
}

// judge summarizes one phase's outcomes.
func judge(rate float64, out []outcome) step {
	return step{Rate: rate, Attempts: len(out), Lat: latencies(out), Failed: failures(out), Behind: behindSchedule(out)}
}

// latencies summarizes the outcomes' latencies in ms.
func latencies(out []outcome) summary {
	lat := make([]float64, len(out))
	for i, o := range out {
		lat[i] = float64(o.latency()) / 1e6
	}
	return summarize(lat)
}

// behindSchedule reports a growing backlog: the median latency of the
// phase's last third of requests (in due order) exceeds half the latency
// limit and twice the median of its first third. A queue that outgrows
// the service rate delays each request more than the one before; random
// stalls, a slow request near the end, and the queueing swings of a busy
// but keeping-up server stay under one of the two marks.
func behindSchedule(out []outcome) bool {
	n := len(out) / 3
	if n == 0 {
		return false
	}
	lat := func(part []outcome) float64 {
		xs := make([]float64, len(part))
		for i, o := range part {
			xs[i] = float64(o.latency())
		}
		return median(xs)
	}
	last := lat(out[len(out)-n:])
	return last > float64(latencyLimit)/2 && last > 2*lat(out[:n])
}

// maxRate is the highest ladder rate that passes. Between the highest
// passing rate and the next rate tried above it, the rate where the tail
// crosses the limit is interpolated from the two tails; a next step with
// failed requests caps the result at the passing rate. When no step
// passes, the lowest rate is scaled by limit/tail.
func maxRate(steps []step) float64 {
	if len(steps) == 0 {
		return 0
	}
	var best *step
	for i := range steps {
		if steps[i].pass() && (best == nil || steps[i].Rate > best.Rate) {
			best = &steps[i]
		}
	}
	limit := float64(latencyLimit) / 1e6
	if best == nil {
		low := steps[0]
		for _, s := range steps {
			if s.Rate < low.Rate {
				low = s
			}
		}
		return low.Rate * math.Min(1, limit/low.Lat.Tail)
	}
	var next *step
	for i := range steps {
		if steps[i].Rate > best.Rate && (next == nil || steps[i].Rate < next.Rate) {
			next = &steps[i]
		}
	}
	if next == nil || next.Failed > 0 || next.Lat.Tail <= best.Lat.Tail {
		return best.Rate
	}
	f := (limit - best.Lat.Tail) / (next.Lat.Tail - best.Lat.Tail)
	return best.Rate + (next.Rate-best.Rate)*math.Max(0, math.Min(1, f))
}

// ladder searches for the highest passing rate. Its first step runs at
// start; it then multiplies the rate by ladderGrow until a step fails (or
// divides until one passes), and bisects geometrically between the
// highest passing and the lowest failing rate until they are within
// ladderResolution or the steps are spent. Every step is judged alike and
// gets an equal share of the time.
func ladder(start float64, run func(rate float64, d time.Duration) step, until time.Time) []step {
	var steps []step
	var lo, hi float64 // highest passing, lowest failing rate; 0 = none yet
	per := time.Until(until) / ladderSteps
	for i := 0; i < ladderSteps && per > 0; i++ {
		var rate float64
		switch {
		case lo == 0 && hi == 0:
			rate = start
		case hi == 0:
			rate = lo * ladderGrow
		case lo == 0:
			rate = hi / ladderGrow
		case hi/lo <= ladderResolution:
			return steps
		default:
			rate = math.Sqrt(lo * hi)
		}
		s := run(rate, per)
		steps = append(steps, s)
		if s.pass() {
			lo = math.Max(lo, rate)
		} else if hi == 0 || rate < hi {
			hi = rate
		}
	}
	return steps
}

// failures counts failed outcomes.
func failures(out []outcome) int {
	n := 0
	for _, o := range out {
		if o.Err != "" {
			n++
		}
	}
	return n
}

// tally counts every request as attempted and every failed one (429,
// 5xx, transport error, failed job) as failed. Any failure, and any cache
// hit on a novel source, fails the run's correctness check.
func tally(rep *report, all []outcome) {
	first := ""
	for _, o := range all {
		rep.Attempted++
		if o.Err != "" {
			rep.Failed++
			if first == "" {
				first = o.Err
			}
		}
	}
	if rep.Failed > 0 {
		rep.mismatch("%d of %d requests failed (first: %s)", rep.Failed, rep.Attempted, first)
	}
	for _, o := range all {
		if o.CacheHit {
			rep.mismatch("a novel source hit the prediction cache")
			break
		}
	}
}

func ladderString(steps []step) string {
	s := ""
	for _, st := range steps {
		v := "fail"
		if st.pass() {
			v = "ok"
		}
		s += fmt.Sprintf("%.0f:%.0fms:%s ", st.Rate, st.Lat.Tail, v)
	}
	return s
}
