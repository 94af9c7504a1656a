package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"clara"
	"clara/internal/core"
	"clara/internal/server"
)

// workerMetrics reads every worker's /metrics.
func workerMetrics(cl *cluster) ([]server.MetricsSnapshot, error) {
	var out []server.MetricsSnapshot
	for _, w := range cl.workers {
		var s server.MetricsSnapshot
		if err := getJSON(cl.client, w.URL+"/metrics", &s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func getJSON(client *http.Client, url string, into any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// histDelta is the analyze-latency histogram accumulated between two
// snapshot sets, summed over workers.
func histDelta(before, after []server.MetricsSnapshot) (bounds []float64, counts []int64) {
	for i, a := range after {
		h := a.Latency["analyze"]
		if bounds == nil {
			bounds, counts = h.BoundsMs, make([]int64, len(h.Counts))
		}
		for k, c := range h.Counts {
			if k < len(counts) {
				counts[k] += c
			}
		}
		if i < len(before) {
			for k, c := range before[i].Latency["analyze"].Counts {
				if k < len(counts) {
					counts[k] -= c
				}
			}
		}
	}
	return bounds, counts
}

// histQuantile interpolates the q-quantile inside its histogram bucket;
// the overflow bucket reports its lower bound.
func histQuantile(bounds []float64, counts []int64, q float64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	var cum float64
	for k, c := range counts {
		lo := 0.0
		if k > 0 {
			lo = bounds[k-1]
		}
		if k >= len(bounds) {
			return lo
		}
		if cum+float64(c) >= target && c > 0 {
			return lo + (bounds[k]-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// serveLayers reports the serving, routing and client layers from the
// traced rateHigh phase (worker metrics before and after it), the
// coordinator hop from a paired measurement, and the analysis layers from
// a staged breakdown of fresh sources.
func serveLayers(opt options, tool *clara.Tool, cl *cluster, gen *sourceGen, high []outcome,
	before, after []server.MetricsSnapshot, tr *tracer, rep *report) error {
	start := time.Now()
	bounds, counts := histDelta(before, after)
	rep.set("server.analyze_p50_ms", histQuantile(bounds, counts, 0.50), "ms", 0, "worker-side, from /metrics histograms")
	rep.set("server.analyze_p99_ms", histQuantile(bounds, counts, 0.99), "ms", 0, "worker-side, from /metrics histograms")
	var rejected int64
	for i, a := range after {
		rejected += a.Requests["analyze"].Rejected - before[i].Requests["analyze"].Rejected
	}
	rep.set("server.rejected_429", float64(rejected), "count", 0, "")

	var wait, late []float64
	var busyMs float64
	hits := 0
	for _, o := range high {
		wait = append(wait, float64(o.latency())/1e6-o.WorkerMs)
		late = append(late, float64(o.Late)/1e6)
		busyMs += o.WorkerMs
		if o.CacheHit {
			hits++
		}
	}
	rep.set("client.queue_wait_ms_p99", percentile(wait, 99), "ms", len(wait), "client latency minus the worker's job time")
	rep.set("client.gen_late_ms_p99", percentile(late, 99), "ms", len(late), "load generator lateness; a large value invalidates the run")
	rep.set("client.failed_share", ratio(float64(failures(high)), float64(len(high))), "ratio", len(high), "failed or refused over attempted")
	rep.set("fleet.cache_hit_ratio", ratio(float64(hits), float64(len(high))), "ratio", len(high), "per served job")
	if len(high) > 0 {
		wall := high[len(high)-1].Done.Sub(high[0].Due).Seconds()
		rep.set("fleet.busy_share", ratio(busyMs/1e3, wall*float64(len(cl.workers))), "ratio", 0, "worker job time over wall x workers")
	}

	var cs struct {
		Cluster struct {
			Retries int64 `json:"retries"`
		} `json:"cluster"`
		Merged server.MetricsSnapshot `json:"merged"`
	}
	if err := getJSON(cl.client, cl.coord.URL+"/metrics", &cs); err != nil {
		return err
	}
	rep.set("cluster.retries", float64(cs.Cluster.Retries), "count", 0, "")
	rep.set("cluster.cache_hit_rate", cs.Merged.Fleet.CacheHitRate, "ratio", 0, "merged worker caches, lifetime")

	hop, err := measureHop(tool, gen, 30)
	if err != nil {
		return err
	}
	rep.set("cluster.hop_us", hop, "us", 30, "median via coordinator minus median direct, fresh workers")

	nextPass := func(int) ([]stagedJob, error) {
		reqs, err := gen.take(stagedPassSize)
		pass := make([]stagedJob, len(reqs))
		for i, r := range reqs {
			pass[i] = stagedJob{Name: r.Name, Src: r.Src, WL: workloadSpec(r.Workload)}
		}
		return pass, err
	}
	until := start.Add(time.Duration(0.3 * float64(opt.seconds) * float64(time.Second)))
	err = stagedBreakdown(tool, tr, nextPass, until, rep, func(p int, pass []stagedJob, got []*core.Insights) error {
		if p > 1 {
			return nil // the first traced and untraced passes suffice
		}
		for i, j := range pass {
			mod, err := clara.CompileNF(j.Name, j.Src)
			if err != nil {
				return err
			}
			want, err := tool.Analyze(mod, clara.ProfileSetup{}, j.WL)
			if err != nil {
				return err
			}
			if same, err := sameInsights(got[i:i+1], []*core.Insights{want}); err != nil {
				return err
			} else if !same {
				rep.mismatch("staged analysis of %s differs from tool.Analyze", j.Name)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	setSetupLayers(rep, tr.snapshot())
	return writeSpans(opt, tr)
}

// measureHop sends n fresh sources one at a time, alternately straight
// to a worker of one fresh cluster and through the coordinator of
// another, and returns the difference of the median latencies in µs.
func measureHop(tool *clara.Tool, gen *sourceGen, n int) (float64, error) {
	direct, err := startCluster(tool, "")
	if err != nil {
		return 0, err
	}
	defer direct.close()
	routed, err := startCluster(tool, "")
	if err != nil {
		return 0, err
	}
	defer routed.close()
	reqs, err := gen.take(n)
	if err != nil {
		return 0, err
	}
	var d, r []float64
	for i, q := range reqs {
		for _, via := range []struct {
			c   *cluster
			url string
			out *[]float64
		}{
			{direct, direct.workers[0].URL, &d},
			{routed, routed.coord.URL, &r},
		} {
			var o outcome
			t0 := time.Now()
			send(via.c.client, via.url+"/v1/analyze", q.Body, &o, false)
			if o.Err != "" {
				return 0, fmt.Errorf("hop request %d: %s", i, o.Err)
			}
			*via.out = append(*via.out, float64(time.Since(t0))/1e3)
		}
	}
	return median(r) - median(d), nil
}
