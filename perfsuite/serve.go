package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"clara"
	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/server"
	"clara/internal/synth"
	"clara/internal/traffic"
)

const (
	// conns bounds client connections: one per CPU.
	conns = procs
	// latencyLimit is the tail latency a ladder step must meet.
	latencyLimit = 100 * time.Millisecond
	// rateLow and rateHigh are the fixed open-loop rates, sized as a
	// quarter and three quarters of a ~200 req/s knee. With the
	// in-process coordinator the 2-CPU box's knee measured 280-380 req/s,
	// so they sit lower than that (see README.md).
	rateLow, rateHigh = 50.0, 150.0
	// ladderGrow is the ratio between rates while the ladder searches
	// for a failing rate; bisection then narrows the bracket to
	// ladderResolution (3%), well inside the throughput bound.
	ladderGrow, ladderResolution = 1.5, 1.03
	// ladderSteps caps the ladder; each step gets an equal share of its
	// time.
	ladderSteps = 5
	// serveRounds is how many times an untraced run cycles through its
	// phases, so that each phase samples the whole run.
	serveRounds = 6
	// saturationCap bounds a closed-loop phase's pre-encoded sources per
	// second of the phase, well above the measured knee; the phase ends
	// early if they run out.
	saturationCap = 600
	// saturationChunk is how many completions one closed-loop rate sample
	// spans.
	saturationChunk = 100
	// keepPerPhase is how many served insights per phase are checked
	// against an in-process reference-interpreter analysis.
	keepPerPhase = 4
	// warmupRequests are sent untimed during set-up.
	warmupRequests = 20
	// stagedPassSize is how many fresh sources one staged breakdown pass
	// analyses.
	stagedPassSize = 8
)

// workloadNames are the /v1/analyze workload choices a request draws from.
var workloadNames = []string{"small", "large", "mix"}

// workloadSpec is the server's mapping of a workload name.
func workloadSpec(name string) traffic.Spec {
	switch name {
	case "small":
		return traffic.SmallFlows
	case "large":
		return traffic.LargeFlows
	}
	return traffic.MediumMix
}

// novelRequest is one pre-encoded /v1/analyze body.
type novelRequest struct {
	Name, Src, Workload string
	Body                []byte
}

// sourceGen draws never-repeated NFC sources from the library's corpus
// profile. The i-th source drawn depends only on the workload seed and i.
type sourceGen struct {
	prof synth.Profile
	seed int64
	seen map[string]bool
	n    int
}

func newSourceGen(seed int64) (*sourceGen, error) {
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		return nil, err
	}
	return &sourceGen{prof: core.CorpusProfile(mods), seed: seed, seen: map[string]bool{}}, nil
}

func (g *sourceGen) next() (novelRequest, error) {
	for {
		g.n++
		rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(g.n)))
		src := synth.Generate(synth.Config{Profile: g.prof, Seed: rng.Int63()})
		wl := workloadNames[rng.Intn(len(workloadNames))]
		if g.seen[src] {
			continue
		}
		g.seen[src] = true
		r := novelRequest{Name: fmt.Sprintf("novel%d", g.n), Src: src, Workload: wl}
		body, err := json.Marshal(server.AnalyzeRequest{Name: r.Name, Src: r.Src, Workload: r.Workload})
		if err != nil {
			return r, err
		}
		r.Body = body
		return r, nil
	}
}

func (g *sourceGen) take(n int) ([]novelRequest, error) {
	out := make([]novelRequest, n)
	for i := range out {
		var err error
		if out[i], err = g.next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cluster is the served system: two single-worker servers behind an
// in-process coordinator, all over loopback.
type cluster struct {
	workers []*httptest.Server
	coord   *httptest.Server
	cancel  context.CancelFunc
	client  *http.Client
}

func startCluster(tool *clara.Tool, hash string) (*cluster, error) {
	c := &cluster{}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := clara.NewServer(clara.ServerConfig{
			Tool: tool, Workers: 1, Model: clara.ModelInfo{Hash: hash, WarmStart: true},
		})
		if err != nil {
			c.close()
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		c.workers = append(c.workers, ts)
		addrs = append(addrs, ts.Listener.Addr().String())
	}
	coord, err := clara.NewCoordinator(clara.ClusterConfig{Workers: addrs})
	if err != nil {
		c.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	coord.Start(ctx)
	c.coord = httptest.NewServer(coord.Handler())
	c.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	return c, nil
}

func (c *cluster) close() {
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	if c.coord != nil {
		c.coord.Close()
	}
	if c.cancel != nil {
		c.cancel()
	}
	for _, w := range c.workers {
		w.Close()
	}
}

// runServe measures the serve-novel workload: never-repeated submitted
// sources through a coordinator to two workers, with open-loop Poisson
// arrivals at two fixed rates and a closed loop that keeps every client
// connection busy. The traced run also climbs a rate ladder.
func runServe(opt options, rep *report) error {
	dir, cleanup, err := scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()
	var tr *tracer
	reps := setupReps
	if opt.trace {
		tr, reps = newTracer(), 1
	}
	phase := func(share float64) time.Duration {
		return time.Duration(share * float64(opt.seconds) * float64(time.Second))
	}
	// An untraced run cycles through its three phases serveRounds times,
	// so each metric samples the whole run, not one stretch of it. The
	// bounded metrics come from the closed loop, which gets most of it.
	rounds := serveRounds
	lowDur, highDur, satDur, ladderDur := phase(0.15/serveRounds), phase(0.15/serveRounds), phase(0.7/serveRounds), time.Duration(0)
	if opt.trace {
		// The traced run makes one round, traces the rateHigh phase, adds
		// the ladder, and leaves 30% of its time to the hop measurement
		// and the staged breakdown.
		rounds = 1
		lowDur, highDur, satDur, ladderDur = phase(0.15), phase(0.2), phase(0.2), phase(0.15)
	}
	type state struct {
		tool *clara.Tool
		cl   *cluster
		gen  *sourceGen
	}
	st, teardown, err := setUp(rep, reps, func() (state, func(), error) {
		tool, hash, err := loadTool(dir, tr, rep)
		if err != nil {
			return state{}, nil, err
		}
		gen, err := newSourceGen(opt.seed)
		if err != nil {
			return state{}, nil, err
		}
		warm, err := gen.take(warmupRequests)
		if err != nil {
			return state{}, nil, err
		}
		cl, err := startCluster(tool, hash)
		if err != nil {
			return state{}, nil, err
		}
		for _, r := range warm {
			var o outcome
			send(cl.client, cl.coord.URL+"/v1/analyze", r.Body, &o, false)
			if o.Err != "" {
				cl.close()
				return state{}, nil, fmt.Errorf("warm-up %s: %s", r.Name, o.Err)
			}
		}
		return state{tool, cl, gen}, cl.close, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	url := st.cl.coord.URL + "/v1/analyze"
	rng := rand.New(rand.NewSource(opt.seed ^ 0x5eed))
	var checked []checkedReq
	var all []outcome
	var genErr error
	// keepSample picks which of a phase's first n requests are checked.
	keepSample := func(n int) map[int]bool {
		keep := map[int]bool{}
		for len(keep) < keepPerPhase && len(keep) < n {
			keep[rng.Intn(n)] = true
		}
		return keep
	}
	record := func(reqs []novelRequest, out []outcome, keep map[int]bool) {
		for i := range keep {
			if i < len(out) {
				checked = append(checked, checkedReq{reqs[i], out[i]})
			}
		}
		all = append(all, out...)
	}
	// runPhase encodes the phase's bodies before its schedule starts.
	runPhase := func(rate float64, d time.Duration, t *tracer) []outcome {
		sched := poissonSchedule(rate, d, rng.Int63())
		reqs, err := st.gen.take(len(sched))
		if err != nil {
			genErr = err
			return nil
		}
		keep := keepSample(len(reqs))
		out := openLoop(st.cl.client, url, reqs, sched, keep, t)
		record(reqs, out, keep)
		return out
	}

	rss := startRSS()
	rt0 := readRuntime()
	var before []server.MetricsSnapshot
	if opt.trace {
		if before, err = workerMetrics(st.cl); err != nil {
			return err
		}
	}
	var low, high, sat []outcome
	var satRates []float64
	runSat := func() error {
		reqs, err := st.gen.take(int(saturationCap * satDur.Seconds()))
		if err != nil {
			return err
		}
		// The first saturationChunk requests are sent at any rate.
		keep := keepSample(saturationChunk)
		out := closedLoop(st.cl.client, url, reqs, satDur, keep)
		record(reqs, out, keep)
		sat = append(sat, out...)
		satRates = append(satRates, chunkRates(out, saturationChunk)...)
		return nil
	}
	for r := 0; r < rounds; r++ {
		low = append(low, runPhase(rateLow, lowDur, nil)...)
		high = append(high, runPhase(rateHigh, highDur, tr)...)
		if !opt.trace {
			if err := runSat(); err != nil {
				return err
			}
		}
	}
	rt1 := readRuntime()
	var after []server.MetricsSnapshot
	var steps []step
	if opt.trace {
		// The worker metrics cover the open-loop phases alone.
		if after, err = workerMetrics(st.cl); err != nil {
			return err
		}
		if err := runSat(); err != nil {
			return err
		}
		until := time.Now().Add(ladderDur)
		steps = ladder(rateHigh*ladderGrow, func(rate float64, d time.Duration) step {
			return judge(rate, runPhase(rate, d, nil))
		}, until)
	}
	peak := rss.stopMB()
	if genErr != nil {
		return genErr
	}

	tally(rep, all)
	rep.set("peak_rss_mb", peak, "MB", 0, "peak resident set while measuring")
	ss := latencies(sat)
	rep.set("latency_p50_ms", ss.Median, "ms", ss.N, fmt.Sprintf("analyze_p50_ms.sat, %d connections kept busy", conns))
	rep.set("e2e.latency_tail_ms", ss.Tail, "ms", ss.N, fmt.Sprintf("analyze_p99_ms.sat (p%g)", ss.TailP))
	over := make([]float64, len(sat))
	for i, o := range sat {
		over[i] = float64(o.latency())/1e6 - o.WorkerMs
	}
	ov := summarize(over)
	rep.set("aux_p50_ms", ov.Median, "ms", ov.N, "serve_overhead_p50_ms.sat: latency minus the worker's analysis time")
	rep.set("e2e.aux_tail_ms", ov.Tail, "ms", ov.N, fmt.Sprintf("serve_overhead_p99_ms.sat (p%g)", ov.TailP))
	for _, ph := range []struct {
		rate float64
		out  []outcome
	}{{rateLow, low}, {rateHigh, high}} {
		l := latencies(ph.out)
		rep.set(fmt.Sprintf("analyze_p50_ms.r%g", ph.rate), l.Median, "ms", l.N, "from due time, not bounded")
		rep.set(fmt.Sprintf("analyze_p99_ms.r%g", ph.rate), l.Tail, "ms", l.N, fmt.Sprintf("p%g, from due time, not bounded", l.TailP))
	}
	rep.set("throughput_per_s", median(satRates), "1/s", len(satRates),
		fmt.Sprintf("analyze_sat_rps: median rate of %d-completion chunks", saturationChunk))
	if opt.trace {
		n := 0
		for _, s := range steps {
			n += s.Attempts
		}
		rep.set("client.ladder_max_rps", maxRate(steps), "1/s", n, "analyze_max_rps: "+ladderString(steps))
	}
	if err := checkServed(st.tool, checked, rep); err != nil {
		return err
	}
	if !opt.trace {
		return nil
	}
	setRuntimeLayers(rep, rt0, rt1, len(low)+len(high), "open-loop request")
	return serveLayers(opt, st.tool, st.cl, st.gen, high, before, after, tr, rep)
}

// checkedReq pairs a served request with its outcome for the reference
// check.
type checkedReq struct {
	req novelRequest
	out outcome
}

// checkServed re-analyses the sampled sources in process on the
// reference interpreter and compares the insights with the served ones.
func checkServed(tool *clara.Tool, checked []checkedReq, rep *report) error {
	return onReference(func() error {
		for _, c := range checked {
			if c.out.Err != "" {
				continue // already counted as a failure
			}
			mod, err := clara.CompileNF(c.req.Name, c.req.Src)
			if err != nil {
				return err
			}
			ins, err := tool.Analyze(mod, clara.ProfileSetup{}, workloadSpec(c.req.Workload))
			if err != nil {
				return err
			}
			want, err := insightsJSON(ins)
			if err != nil {
				return err
			}
			var got bytes.Buffer
			if err := json.Compact(&got, c.out.Insights); err != nil {
				return err
			}
			if !bytes.Equal(got.Bytes(), want) {
				rep.mismatch("served insights for %s differ from the reference analysis", c.req.Name)
			}
		}
		return nil
	})
}
