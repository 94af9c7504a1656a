package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"clara"
	"clara/internal/core"
)

// fleetWorkers is the analysis pool size: one worker per CPU.
const fleetWorkers = procs

// libraryJobs is clara.LibraryJobs over the three standard traffic specs,
// each with a traffic seed drawn from the workload seed: 17 elements × 3
// specs = 51 jobs of 800 profiled packets.
func libraryJobs(seed int64) ([]clara.FleetJob, error) {
	rng := rand.New(rand.NewSource(seed))
	var specs []clara.Workload
	for _, wl := range []clara.Workload{clara.SmallFlows, clara.LargeFlows, clara.MediumMix} {
		wl.Seed = rng.Int63()
		specs = append(specs, wl)
	}
	return clara.LibraryJobs(specs...)
}

// batchDigest hashes a batch's insights in job order.
func batchDigest(res []clara.FleetResult) ([32]byte, error) {
	h := sha256.New()
	for _, r := range res {
		b, err := insightsJSON(r.Insights)
		if err != nil {
			return [32]byte{}, err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// runFleet measures the fleet-library workload: a long-lived fleet runs
// the library batch back to back (closed loop) after one untimed warm-up
// batch, so every prediction and compiled program is a cache hit.
func runFleet(opt options, rep *report) error {
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
	type state struct {
		tool *clara.Tool
		fl   *clara.Fleet
		jobs []clara.FleetJob
	}
	st, teardown, err := setUp(rep, reps, func() (state, func(), error) {
		tool, _, err := loadTool(dir, tr, rep)
		if err != nil {
			return state{}, nil, err
		}
		jobs, err := libraryJobs(opt.seed)
		if err != nil {
			return state{}, nil, err
		}
		fl, err := clara.NewFleet(tool, clara.FleetConfig{Workers: fleetWorkers})
		if err != nil {
			return state{}, nil, err
		}
		if _, err := fl.Run(jobs); err != nil { // warm-up
			return state{}, nil, err
		}
		return state{tool, fl, jobs}, func() {}, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	start := time.Now()
	share := 1.0
	if opt.trace {
		share = 1.0 / 3 // the rest goes to the staged breakdown
	}
	until := phaseEnd(start, opt, share)
	rss := startRSS()
	rt0 := readRuntime()
	stats0 := st.fl.Stats()
	var (
		batchMs, jobMs, rates []float64
		busy, wall            time.Duration
		first                 [32]byte
		last                  []clara.FleetResult
	)
	for b := 0; b == 0 || time.Now().Before(until); b++ {
		sp := tr.begin("fleet.batch", int64(b), -1)
		t0 := time.Now()
		res, err := st.fl.Run(st.jobs)
		d := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		wall += d
		batchMs = append(batchMs, float64(d)/1e6)
		rates = append(rates, float64(len(res))/d.Seconds())
		for _, r := range res {
			rep.Attempted++
			busy += r.Elapsed
			jobMs = append(jobMs, float64(r.Elapsed)/1e6)
			if r.Err != nil {
				rep.Failed++
				rep.mismatch("job %s/%s failed: %v", r.Name, r.Workload, r.Err)
			}
		}
		dg, err := batchDigest(res)
		if err != nil {
			return err
		}
		if b == 0 {
			first = dg
		} else if dg != first {
			rep.mismatch("batch %d insights differ from batch 0", b)
		}
		last = res
	}
	rt1 := readRuntime()
	stats1 := st.fl.Stats()
	peak := rss.stopMB()

	rep.set("peak_rss_mb", peak, "MB", 0, "peak resident set while measuring")
	rep.set("throughput_per_s", median(rates), "1/s", len(rates), "fleet_jobs_per_s: median per-batch jobs/s, 51 jobs x 800 pkts")
	js := summarize(jobMs)
	rep.set("latency_p50_ms", js.Median, "ms", js.N, "one fleet job (Result.Elapsed), 2 workers busy")
	rep.set("e2e.latency_tail_ms", js.Tail, "ms", js.N, fmt.Sprintf("job latency p%g", js.TailP))
	bs := summarize(batchMs)
	rep.set("aux_p50_ms", bs.Median, "ms", bs.N, "one 51-job batch")
	rep.set("e2e.aux_tail_ms", bs.Tail, "ms", bs.N, fmt.Sprintf("batch latency p%g", bs.TailP))

	hits := float64(stats1.CacheHits - stats0.CacheHits)
	misses := float64(stats1.CacheMisses - stats0.CacheMisses)
	rep.set("fleet.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses), "prediction cache, measured batches")
	rep.set("fleet.busy_share", ratio(busy.Seconds(), wall.Seconds()*fleetWorkers), "ratio", 0, "sum of Result.Elapsed over wall x workers")
	setRuntimeLayers(rep, rt0, rt1, len(jobMs), "job")

	// The same batch on the reference interpreter must give the same
	// insights as every timed batch.
	if err := onReference(func() error {
		ref, err := st.fl.Run(st.jobs)
		if err != nil {
			return err
		}
		dg, err := batchDigest(ref)
		if err == nil && dg != first {
			rep.mismatch("reference-interpreter batch differs from the timed batches")
		}
		return err
	}); err != nil {
		return err
	}

	if !opt.trace {
		return nil
	}
	setSetupLayers(rep, tr.snapshot())
	pass := make([]stagedJob, len(st.jobs))
	want := make([]*core.Insights, len(last))
	for i, j := range st.jobs {
		pass[i] = stagedJob{Name: j.Name, Mod: j.Mod, PS: j.PS, WL: j.WL, MP: last[i].Insights.Prediction}
		want[i] = last[i].Insights
	}
	err = stagedBreakdown(st.tool, tr, func(int) ([]stagedJob, error) { return pass, nil }, phaseEnd(start, opt, 1), rep,
		func(p int, _ []stagedJob, got []*core.Insights) error {
			same, err := sameInsights(got, want)
			if err == nil && !same {
				rep.mismatch("staged pass %d differs from the fleet's insights", p)
			}
			return err
		})
	if err != nil {
		return err
	}
	return writeSpans(opt, tr)
}
