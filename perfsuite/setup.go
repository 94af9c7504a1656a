package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"clara"
	"clara/internal/click"
	"clara/internal/core"
	"clara/internal/nicsim"
	"clara/internal/synth"
)

// trainSeed is the tool every workload analyses with: quick training at
// seed 42, independent of the workload seed (the tool is the system under
// test, not an input).
const trainSeed = 42

// setupReps is how many times an untraced run sets up; setup_s is the
// median. A traced run sets up once and reports the stages instead.
const setupReps = 3

var trainCfg = clara.TrainConfig{Quick: true, Seed: trainSeed}

// setUp builds a workload's state reps times and keeps the last; each
// earlier build is torn down. setup_s is the median build time.
func setUp[T any](rep *report, reps int, build func() (T, func(), error)) (T, func(), error) {
	var (
		st       T
		teardown func()
		times    []float64
	)
	for i := 0; i < reps; i++ {
		if teardown != nil {
			teardown()
		}
		t0 := time.Now()
		var err error
		st, teardown, err = build()
		if err != nil {
			return st, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(times), "s", len(times), "median set-up (train, bundle save/load, workload warm-up)")
	// Start the measured phase from a collected heap. Returning the freed
	// pages to the OS as well (debug.FreeOSMemory) made the first
	// measured phase re-fault them and doubled serve-novel's run-to-run
	// spread; the runtime's scavenger returns them gradually instead.
	runtime.GC()
	return st, teardown, nil
}

// scratchDir makes a per-run scratch directory under the checkout.
func scratchDir() (string, func(), error) {
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(benchDir, "run-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// loadTool trains the tool, saves it as a model bundle and warm-starts
// from the bundle, the way `clara -serve -model-load` starts. With a
// tracer, training runs stage by stage so each stage gets a span, and the
// staged tool is checked against clara.TrainContext's.
func loadTool(dir string, tr *tracer, rep *report) (*clara.Tool, string, error) {
	ctx := context.Background()
	t0 := time.Now()
	var tool *clara.Tool
	var err error
	if tr == nil {
		tool, err = clara.TrainContext(ctx, trainCfg)
	} else {
		tool, err = trainStaged(ctx, tr)
		if err == nil {
			err = checkStagedTraining(tool, rep)
		}
	}
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, "model.json")
	if _, err := clara.SaveTool(path, tool, trainCfg, time.Since(t0).Seconds()); err != nil {
		return nil, "", err
	}
	sp := tr.begin("setup.bundle_load", 0, -1)
	warm, hash, err := clara.LoadTool(path, trainCfg)
	tr.end(sp)
	return warm, hash, err
}

// trainStaged is clara.TrainContext in quick mode, one public training
// call per span.
func trainStaged(ctx context.Context, tr *tracer) (*clara.Tool, error) {
	params := nicsim.DefaultParams()
	mods, err := click.Modules(click.Table2Order)
	if err != nil {
		return nil, err
	}
	pcfg := core.PredictorConfig{CompactVocab: true, Seed: trainSeed, TrainPrograms: 50, Epochs: 6, Hidden: 16}
	scfg := core.ScaleoutConfig{
		Params: params, Seed: trainSeed, TrainPrograms: 8, PacketsPerTrace: 400,
		CoreGrid: []int{2, 8, 16, 32, 48, 60},
	}
	sp := tr.begin("setup.train_predictor", 0, -1)
	pred, err := core.TrainPredictorContext(ctx, pcfg, core.CorpusProfile(mods))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("setup.train_algoid", 0, -1)
	corpus := synth.AlgoCorpus(12, trainSeed)
	for _, name := range []string{"tcpack", "udpipencap", "forcetcp", "aggcounter", "timefilter"} {
		corpus = append(corpus, synth.LabeledProgram{Name: "click_" + name, Src: click.Get(name).Src, Label: synth.LabelNone})
	}
	algo, err := core.TrainAlgoIdentifier(corpus, 48, trainSeed)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("setup.train_scaleout", 0, -1)
	sm, err := core.TrainScaleoutContext(ctx, scfg, pred)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &clara.Tool{Predictor: pred, AlgoID: algo, Scaleout: sm, Params: params}, nil
}

// checkStagedTraining confirms the staged training built the same model
// as clara.TrainContext, so traced and untraced runs analyse with the
// same tool.
func checkStagedTraining(staged *clara.Tool, rep *report) error {
	ref, err := clara.TrainContext(context.Background(), trainCfg)
	if err != nil {
		return err
	}
	a, err := encodeTool(staged)
	if err != nil {
		return err
	}
	b, err := encodeTool(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		rep.mismatch("staged training differs from clara.TrainContext")
	}
	return nil
}

func encodeTool(t *clara.Tool) ([]byte, error) {
	b, err := core.NewBundle(t, core.BundleMeta{Quick: true, Seed: trainSeed})
	if err != nil {
		return nil, err
	}
	return core.EncodeBundle(b)
}

// rssSampler tracks the process's peak resident set while it runs.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak int64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.sample()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.peak = max(s.peak, pages*int64(os.Getpagesize()))
	s.mu.Unlock()
}

// stopMB stops sampling and returns the peak in MB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	s.done.Wait()
	s.sample()
	return float64(s.peak) / (1 << 20)
}

// runtimeStats snapshots allocation and GC CPU counters.
type runtimeStats struct{ allocBytes, gcCPU, totalCPU float64 }

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// setRuntimeLayers reports allocation per operation and GC's share of
// CPU between two snapshots.
func setRuntimeLayers(rep *report, a, b runtimeStats, ops int, opName string) {
	rep.set("runtime.alloc_kb_per_op", ratio(b.allocBytes-a.allocBytes, float64(ops))/1024, "KB", ops, "per "+opName)
	rep.set("runtime.gc_cpu_share", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), "ratio", 0, "GC CPU over all CPU in the measured phase")
}

// setSetupLayers reports the traced set-up stages.
func setSetupLayers(rep *report, spans []span) {
	st := selfTimes(spans)
	rep.set("setup.train_predictor_s", st["setup.train_predictor"].Self.Seconds(), "s", st["setup.train_predictor"].Calls, "")
	rep.set("setup.train_algoid_s", st["setup.train_algoid"].Self.Seconds(), "s", st["setup.train_algoid"].Calls, "")
	rep.set("setup.train_scaleout_s", st["setup.train_scaleout"].Self.Seconds(), "s", st["setup.train_scaleout"].Calls, "")
	rep.set("setup.bundle_load_ms", float64(st["setup.bundle_load"].Self)/1e6, "ms", st["setup.bundle_load"].Calls, "")
}

// writeSpans dumps a traced run's spans under the scratch build tree.
func writeSpans(opt options, tr *tracer) error {
	dir := filepath.Join(benchDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.writeFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", opt.workload, opt.seed)))
}
