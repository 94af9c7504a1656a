package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clara/internal/server"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		p, v  float64
		medan float64
	}{
		{n: 1000, p: 99, v: 990, medan: 500.5},
		{n: 999, p: 95, v: 950, medan: 500}, // p99 would leave only 9 beyond
		{n: 200, p: 95, v: 190, medan: 100.5},
		{n: 199, p: 90, v: 180, medan: 100},
		{n: 20, p: 50, v: 10, medan: 10.5},
		{n: 19, p: 0, v: 19, medan: 10}, // too few: report the maximum
		{n: 10000, p: 99.9, v: 9990, medan: 5000.5},
	} {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailP != c.p || s.Tail != c.v || s.Median != c.medan {
			t.Errorf("n=%d: got N=%d p%g=%g median=%g, want p%g=%g median=%g", c.n, s.N, s.TailP, s.Tail, s.Median, c.p, c.v, c.medan)
		}
		if c.p > 0 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, s.TailP)
			}
		}
	}
	if s := summarize(nil); s.N != 0 || s.Tail != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},  // overlaps a
		{Name: "b", Parent: 0, Start: 35 * ms, End: 50 * ms},  // inside a∪b
		{Name: "c", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{Name: "d", Parent: 1, Start: 20 * ms, End: 25 * ms},  // grandchild
		{Name: "open", Parent: 0, Start: 70 * ms, End: -1},    // never closed
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"job": {Self: 100*ms - 50*ms - 10*ms, Calls: 1}, // covered: [10,60] and [90,100]
		"a":   {Self: 25 * ms, Calls: 1},
		"b":   {Self: 45 * ms, Calls: 2},
		"c":   {Self: 30 * ms, Calls: 1},
		"d":   {Self: 5 * ms, Calls: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", 1, -1)
	tr.end(i)
	if i != -1 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("job", 7, -1)
	child := tr.begin("core.profile", 7, root)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != 0 || s[1].ID != 7 || s[0].End < s[1].End {
		t.Fatalf("spans = %+v", s)
	}
}

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := poissonSchedule(150, 10*time.Second, 42)
	b := poissonSchedule(150, 10*time.Second, 42)
	c := poissonSchedule(150, 10*time.Second, 43)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n < 1350 || n > 1650 {
		t.Fatalf("%d arrivals at 150/s over 10s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 10*time.Second {
			t.Fatalf("offset %d out of order or range: %v", i, a[i])
		}
	}
}

func TestSourceGenDeterministicAndNovel(t *testing.T) {
	g1, err := newSourceGen(5)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := newSourceGen(5)
	a, err := g1.take(30)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := g2.take(30)
	seen := map[string]bool{}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Workload != b[i].Workload || !bytes.Equal(a[i].Body, b[i].Body) {
			t.Fatalf("request %d differs between generators with one seed", i)
		}
		if seen[a[i].Src] {
			t.Fatalf("source %d repeated", i)
		}
		seen[a[i].Src] = true
	}
}

// outcomes builds n requests due every gap, each taking lat(i).
func outcomes(n int, gap time.Duration, lat func(i int) time.Duration) []outcome {
	t0 := time.Unix(0, 0)
	out := make([]outcome, n)
	for i := range out {
		due := t0.Add(time.Duration(i) * gap)
		out[i] = outcome{Due: due, Sent: due, Done: due.Add(lat(i)), Status: 200}
	}
	return out
}

func TestBacklogRule(t *testing.T) {
	// Random stalls: 15 of 1000 requests take 300ms, spread through the
	// step. The tail fails, but the queue does not grow.
	stalls := outcomes(1000, 5*time.Millisecond, func(i int) time.Duration {
		if i%67 == 3 {
			return 300 * time.Millisecond
		}
		return 5 * time.Millisecond
	})
	if behindSchedule(stalls) {
		t.Error("scattered stalls read as a growing backlog")
	}
	// One slow request at the very end delays the few behind it.
	slowEnd := outcomes(1000, 5*time.Millisecond, func(i int) time.Duration {
		if i >= 990 {
			return time.Duration(1000-i) * 30 * time.Millisecond
		}
		return 5 * time.Millisecond
	})
	if behindSchedule(slowEnd) {
		t.Error("a slow request at the end read as a growing backlog")
	}
	// A busy server that keeps up: latency wanders between 6 and 20ms.
	busy := outcomes(1000, 5*time.Millisecond, func(i int) time.Duration {
		if i > 600 {
			return 20 * time.Millisecond
		}
		return 6 * time.Millisecond
	})
	if behindSchedule(busy) {
		t.Error("queueing swings under the limit read as a growing backlog")
	}
	// A queue growing slowly through the step: each request waits a
	// little longer than the one before, up to 80ms. The tail passes the
	// limit, but the step must still be rejected.
	growing := outcomes(1000, 5*time.Millisecond, func(i int) time.Duration {
		return 5*time.Millisecond + time.Duration(i)*75*time.Microsecond
	})
	s := judge(200, growing)
	if s.Lat.Tail > float64(latencyLimit)/1e6 {
		t.Fatalf("setup: tail %gms should pass", s.Lat.Tail)
	}
	if !s.Behind || s.pass() {
		t.Errorf("growing backlog passed: %+v", s)
	}
	// A failed request fails the step whatever the latency.
	ok := outcomes(100, 5*time.Millisecond, func(int) time.Duration { return time.Millisecond })
	ok[50].Err = "HTTP 429"
	if judge(200, ok).pass() {
		t.Error("step with a refused request passed")
	}
}

// fakeStep is a step at rate against a system whose tail crosses the
// limit at capacity.
func fakeStep(rate, capacity float64) step {
	tail := 20 + 80*rate/capacity
	return step{Rate: rate, Attempts: 500, Lat: summary{N: 500, Median: 5, TailP: 95, Tail: tail}}
}

func TestLadderFindsCapacity(t *testing.T) {
	for _, capacity := range []float64{100, 237, 410, 900} {
		run := func(rate float64, d time.Duration) step { return fakeStep(rate, capacity) }
		steps := ladder(rateHigh*ladderGrow, run, time.Now().Add(ladderSteps*time.Second))
		got := maxRate(steps)
		if got < capacity*0.97 || got > capacity*1.03 {
			t.Errorf("capacity %g: max rate %g from %s", capacity, got, ladderString(steps))
		}
		if len(steps) != ladderSteps {
			t.Errorf("capacity %g: %d steps", capacity, len(steps))
		}
		for _, s := range steps {
			if s.Rate <= 0 {
				t.Errorf("capacity %g: non-positive rate", capacity)
			}
		}
	}
}

func TestMaxRateRules(t *testing.T) {
	pass := step{Rate: 300, Lat: summary{Tail: 60}}
	fail := step{Rate: 400, Lat: summary{Tail: 140}}
	if got := maxRate([]step{pass, fail}); got != 350 {
		t.Errorf("interpolated max = %g, want 350", got)
	}
	failed := fail
	failed.Failed = 1
	if got := maxRate([]step{pass, failed}); got != 300 {
		t.Errorf("max with failed requests above = %g, want 300", got)
	}
	if got := maxRate([]step{pass}); got != 300 {
		t.Errorf("max with nothing above = %g, want 300", got)
	}
	if got := maxRate([]step{{Rate: 150, Lat: summary{Tail: 200}}}); got != 75 {
		t.Errorf("max when nothing passes = %g, want 75", got)
	}
}

func TestSendClassifiesFailures(t *testing.T) {
	mux := http.NewServeMux()
	reply := func(w http.ResponseWriter, body any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	}
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		reply(w, map[string]any{"results": []map[string]any{{"elapsed_ms": 4.5, "insights": map[string]any{"NF": "x"}}}})
	})
	mux.HandleFunc("/429", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusTooManyRequests) })
	mux.HandleFunc("/500", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusInternalServerError) })
	mux.HandleFunc("/partial", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.FailedJobsHeader, "1")
		reply(w, map[string]any{"results": []map[string]any{{"error": "boom"}}})
	})
	mux.HandleFunc("/joberr", func(w http.ResponseWriter, r *http.Request) {
		reply(w, map[string]any{"results": []map[string]any{{"error": "fuel exhausted"}}})
	})
	ts := httptest.NewServer(mux)
	client := ts.Client()

	var all []outcome
	for _, path := range []string{"/ok", "/429", "/500", "/partial", "/joberr"} {
		var o outcome
		send(client, ts.URL+path, []byte("{}"), &o, true)
		all = append(all, o)
	}
	ts.Close()
	var o outcome
	send(client, ts.URL+"/ok", []byte("{}"), &o, false) // transport error
	all = append(all, o)

	if all[0].Err != "" || all[0].WorkerMs != 4.5 || len(all[0].Insights) == 0 {
		t.Fatalf("ok reply: %+v", all[0])
	}
	for i, o := range all[1:] {
		if o.Err == "" {
			t.Errorf("outcome %d not counted as failed: %+v", i+1, o)
		}
	}
	rep := newReport()
	tally(rep, all)
	if rep.Attempted != 6 || rep.Failed != 5 || rep.Correct {
		t.Fatalf("tally: attempted=%d failed=%d correct=%v", rep.Attempted, rep.Failed, rep.Correct)
	}
	if got := ratio(float64(failures(all)), float64(len(all))); got != 5.0/6 {
		t.Fatalf("failed share = %g", got)
	}
}

func TestFinishExitsNonZeroOnMismatch(t *testing.T) {
	opt := options{workload: "fleet-library", seed: 1, seconds: 1}
	full := func() *report {
		rep := newReport()
		for _, n := range endToEnd {
			rep.set(n, 1.5, "ms", 3, "")
		}
		return rep
	}
	var out, errs bytes.Buffer
	if code := finish(opt, full(), &out, &errs); code != 0 {
		t.Fatalf("clean run exited %d: %s", code, errs.String())
	}
	var res struct {
		Correct bool                       `json:"correct"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(lastLine(out.String()), &res); err != nil || !res.Correct || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result line: %v %+v", err, res)
	}

	rep := full()
	rep.mismatch("insights differ")
	out.Reset()
	if code := finish(opt, rep, &out, &errs); code != 1 {
		t.Fatalf("mismatch exited %d", code)
	}
	if err := json.Unmarshal(lastLine(out.String()), &res); err != nil || res.Correct {
		t.Fatalf("mismatch result line: %v %+v", err, res)
	}

	// A missing end-to-end metric is itself a failure.
	rep = full()
	delete(rep.Metrics, "setup_s")
	if code := finish(opt, rep, &out, &errs); code != 1 {
		t.Fatalf("missing metric exited %d", code)
	}

	// A traced run reports every per-layer metric, unexercised ones as 0.
	opt.trace = true
	out.Reset()
	if code := finish(opt, newReport(), &out, &errs); code != 0 {
		t.Fatalf("traced run exited %d", code)
	}
	res.Metrics = nil
	if err := json.Unmarshal(lastLine(out.String()), &res); err != nil || len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced result line: %v, %d metrics", err, len(res.Metrics))
	}
}

func lastLine(s string) []byte {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return []byte(lines[len(lines)-1])
}

func TestGoldenCheckCatchesDrift(t *testing.T) {
	src := filepath.Join("..", goldenDir)
	rep := newReport()
	if err := checkGoldens(src, rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("committed goldens mismatch: %v", rep.mismatches)
	}
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "sim_zipf_insight.golden" {
			b = bytes.Replace(b, []byte(`"threshold":12`), []byte(`"threshold":13`), 1)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep = newReport()
	if err := checkGoldens(dir, rep); err != nil {
		t.Fatal(err)
	}
	if rep.Correct || len(rep.mismatches) != 1 {
		t.Fatalf("tampered golden not caught: %v", rep.mismatches)
	}
	var out, errs bytes.Buffer
	for _, n := range endToEnd {
		rep.set(n, 1, "s", 1, "")
	}
	if code := finish(options{workload: "nic-whatif"}, rep, &out, &errs); code != 1 {
		t.Fatalf("golden mismatch exited %d", code)
	}
}

func TestParseArgs(t *testing.T) {
	var errs bytes.Buffer
	opt, err := parseArgs([]string{"--workload", "serve-novel", "--seed", "9", "--seconds", "12", "--trace", "1"}, &errs)
	if err != nil || opt.workload != "serve-novel" || opt.seed != 9 || opt.seconds != 12 || !opt.trace {
		t.Fatalf("parse: %+v %v", opt, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "nic-whatif", "--trace", "2"},
		{"--workload", "nic-whatif", "--seconds", "0"},
	} {
		if _, err := parseArgs(bad, &errs); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestOpenLoopCompletesEveryRequest(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte(`{"results":[{"elapsed_ms":1.5,"insights":{}}]}`))
	}))
	defer ts.Close()
	sched := poissonSchedule(400, 200*time.Millisecond, 3)
	reqs := make([]novelRequest, len(sched))
	tr := newTracer()
	out := openLoop(ts.Client(), ts.URL, reqs, sched, map[int]bool{0: true}, tr)
	if len(out) != len(sched) || len(sched) == 0 {
		t.Fatalf("%d outcomes for %d requests", len(out), len(sched))
	}
	for i, o := range out {
		if o.Err != "" || o.WorkerMs != 1.5 || o.Done.Before(o.Sent) || o.Sent.Before(o.Due) || o.Late < 0 {
			t.Fatalf("outcome %d: %+v", i, o)
		}
	}
	if len(out[0].Insights) == 0 {
		t.Error("kept request lost its insights")
	}
	if got := len(tr.snapshot()); got != 2*len(sched) {
		t.Errorf("%d spans for %d requests", got, len(sched))
	}
}

func TestClosedLoopStopsAtDeadlineOrPool(t *testing.T) {
	var inFlight, peak int64
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		w.Write([]byte(`{"results":[{"elapsed_ms":1.5,"insights":{}}]}`))
	}))
	defer ts.Close()
	// A pool that outlasts the deadline: the phase ends on time and every
	// returned request was sent and answered.
	reqs := make([]novelRequest, 10000)
	t0 := time.Now()
	out := closedLoop(ts.Client(), ts.URL, reqs, 100*time.Millisecond, map[int]bool{0: true})
	if took := time.Since(t0); took > time.Second {
		t.Errorf("closed loop ran %v past a 100ms deadline", took)
	}
	if len(out) < conns || len(out) == len(reqs) {
		t.Fatalf("%d outcomes from a pool of %d", len(out), len(reqs))
	}
	for i, o := range out {
		if o.Err != "" || o.Sent.IsZero() || o.Done.Before(o.Sent) || o.Due != o.Sent {
			t.Fatalf("outcome %d: %+v", i, o)
		}
	}
	if len(out[0].Insights) == 0 {
		t.Error("kept request lost its insights")
	}
	if peak > conns {
		t.Errorf("%d requests in flight, want at most %d", peak, conns)
	}
	// A pool that runs dry first: every request is sent once.
	if out := closedLoop(ts.Client(), ts.URL, reqs[:7], time.Minute, nil); len(out) != 7 {
		t.Errorf("%d outcomes from a pool of 7", len(out))
	}
}

func TestChunkRates(t *testing.T) {
	// 10 requests, sent at 0 and completing 10ms apart from 10ms on: two
	// full chunks of 4 at 4/40ms = 100/s; the last 2 are dropped.
	t0 := time.Unix(0, 0)
	var out []outcome
	for i := 9; i >= 0; i-- { // completion order need not be slice order
		out = append(out, outcome{Sent: t0, Done: t0.Add(time.Duration(i+1) * 10 * time.Millisecond)})
	}
	got := chunkRates(out, 4)
	if len(got) != 2 || math.Abs(got[0]-100) > 1e-9 || math.Abs(got[1]-100) > 1e-9 {
		t.Errorf("chunk rates %v, want [100 100]", got)
	}
	// Fewer completions than a chunk: one rate over all of them, the
	// last at 100ms.
	if got := chunkRates(out[:3], 4); len(got) != 1 || math.Abs(got[0]-30) > 1e-9 {
		t.Errorf("chunk rates %v from fewer completions than a chunk, want [30]", got)
	}
}
