package main

import (
	"encoding/json"
	"fmt"
	"time"

	"clara"
	"clara/internal/analysis"
	"clara/internal/core"
	"clara/internal/interp"
	"clara/internal/ir"
	"clara/internal/lang"
	"clara/internal/traffic"
)

// profilePackets is how many packets core.(*Clara).Analyze profiles.
const profilePackets = 800

// stagedJob is one analysis broken down by layer. A job with Src is a
// submitted source: it is compiled, predicted and precompiled first, as
// the server does; otherwise Mod and its cached prediction are used, as a
// warm fleet does.
type stagedJob struct {
	Name string
	Src  string
	Mod  *ir.Module
	PS   core.ProfileSetup
	WL   traffic.Spec
	MP   *core.ModulePrediction
}

// analyzeStaged runs the analysis pipeline one public layer call at a
// time, each under a span parented to a per-job span. It mirrors
// core.(*Clara).AnalyzeWithPredictionContext; checkStaged confirms the
// two agree. It returns the insights and the number of predicted blocks.
func analyzeStaged(tool *clara.Tool, j stagedJob, tr *tracer, id int64) (*core.Insights, int, error) {
	root := tr.begin("job", id, -1)
	defer tr.end(root)
	stage := func(name string, f func()) {
		sp := tr.begin(name, id, root)
		f()
		tr.end(sp)
	}
	var err error
	mod, mp := j.Mod, j.MP
	blocks := 0
	if j.Src != "" {
		if stage("lang.compile", func() { mod, err = lang.Compile(j.Name, j.Src) }); err != nil {
			return nil, 0, err
		}
		if stage("core.predict", func() { mp, err = tool.Predictor.PredictModule(mod, clara.AccelConfig{}) }); err != nil {
			return nil, 0, err
		}
		blocks = len(mp.Blocks)
		if stage("interp.precompile", func() { err = interp.Precompile(mod) }); err != nil {
			return nil, 0, err
		}
	}
	ins := &core.Insights{NF: mod.Name, Workload: j.WL.Name, Prediction: mp}
	stage("analysis.lint", func() { ins.Diagnostics = analysis.LintModule(mod, tool.LintConfig()) })
	stage("analysis.state_profile", func() { ins.StateProfile = analysis.ComputeStateProfile(mod) })
	stage("core.algoid", func() { ins.Algorithm = tool.AlgoID.Classify(mod) })
	var prof *core.HostProfile
	if stage("core.profile", func() { prof, err = core.ProfileOnHost(mod, j.PS, j.WL, profilePackets) }); err != nil {
		return nil, 0, err
	}
	if len(mod.Globals) > 0 {
		if stage("core.placement", func() { ins.Placement, err = core.SuggestPlacement(mod, prof, tool.Params) }); err != nil {
			return nil, 0, err
		}
		stage("core.packs", func() { ins.Packs = core.SuggestPacks(mod, prof, tool.Coalesce) })
	}
	stage("core.scaleout", func() {
		stateBytes := 0
		for _, g := range mod.Globals {
			stateBytes += g.SizeBytes()
		}
		ins.SuggestedCores = tool.Scaleout.Suggest(core.ScaleoutFeatures(mp, prof, j.WL, stateBytes))
	})
	return ins, blocks, nil
}

// stagedBreakdown runs passes of jobs alternately with and without
// tracing until the deadline (at least two), reports the per-job layer
// metrics from the traced passes, and the tracing overhead as the traced
// passes' median time over the untraced passes' minus one. nextPass
// builds pass p's jobs before it is timed; check receives its insights.
func stagedBreakdown(tool *clara.Tool, tr *tracer, nextPass func(p int) ([]stagedJob, error), until time.Time,
	rep *report, check func(pass int, jobs []stagedJob, ins []*core.Insights) error) error {
	var on, off []float64
	blocks, jobs := 0, 0
	var id int64
	for p := 0; p < 2 || time.Now().Before(until); p++ {
		pass, err := nextPass(p)
		if err != nil {
			return err
		}
		var ptr *tracer
		if p%2 == 0 {
			ptr = tr
		}
		t0 := time.Now()
		out := make([]*core.Insights, len(pass))
		nb := 0
		for i, j := range pass {
			id++
			ins, b, err := analyzeStaged(tool, j, ptr, id)
			if err != nil {
				return fmt.Errorf("staged %s: %w", j.Name, err)
			}
			out[i] = ins
			nb += b
		}
		d := time.Since(t0).Seconds()
		if ptr != nil {
			on = append(on, d)
			blocks += nb
			jobs += len(pass)
		} else {
			off = append(off, d)
		}
		if err := check(p, pass, out); err != nil {
			return err
		}
	}
	st := selfTimes(tr.snapshot())
	perJob := func(name string) float64 { return ratio(float64(st[name].Self)/1e3, float64(jobs)) }
	rep.set("core.profile_us_per_pkt", perJob("core.profile")/profilePackets, "us", st["core.profile"].Calls, "host profiling (interp host mode + traffic replay)")
	rep.set("analysis.lint_us", perJob("analysis.lint"), "us", st["analysis.lint"].Calls, "per job")
	rep.set("analysis.state_profile_us", perJob("analysis.state_profile"), "us", st["analysis.state_profile"].Calls, "per job")
	rep.set("core.algoid_us", perJob("core.algoid"), "us", st["core.algoid"].Calls, "per job")
	rep.set("core.placement_us", perJob("core.placement"), "us", st["core.placement"].Calls, "per job (ILP)")
	rep.set("core.packs_us", perJob("core.packs"), "us", st["core.packs"].Calls, "per job")
	rep.set("core.scaleout_us", perJob("core.scaleout"), "us", st["core.scaleout"].Calls, "per job")
	if st["core.predict"].Calls > 0 {
		rep.set("lang.compile_us", perJob("lang.compile"), "us", st["lang.compile"].Calls, "per request")
		rep.set("core.predict_us_per_block", ratio(float64(st["core.predict"].Self)/1e3, float64(blocks)), "us", blocks, "uncached prediction")
		rep.set("core.predict_blocks", ratio(float64(blocks), float64(jobs)), "count", jobs, "blocks per request")
		rep.set("interp.precompile_us", perJob("interp.precompile"), "us", st["interp.precompile"].Calls, "per request")
	}
	rep.set("trace.overhead_share", median(on)/median(off)-1, "ratio", len(on)+len(off),
		fmt.Sprintf("traced vs untraced staged passes (%d+%d)", len(on), len(off)))
	return nil
}

// onReference runs f with the reference interpreter as the process-wide
// default backend, then restores the compiled one.
func onReference(f func() error) error {
	if err := clara.SetInterpBackend(clara.InterpReference); err != nil {
		return err
	}
	ferr := f()
	if err := clara.SetInterpBackend(clara.InterpCompiled); err != nil {
		return err
	}
	return ferr
}

// insightsJSON is the canonical encoding outputs are compared by.
func insightsJSON(ins *core.Insights) ([]byte, error) { return json.Marshal(ins) }

// sameInsights reports whether two insight lists encode identically.
func sameInsights(a, b []*core.Insights) (bool, error) {
	if len(a) != len(b) {
		return false, nil
	}
	for i := range a {
		x, err := insightsJSON(a[i])
		if err != nil {
			return false, err
		}
		y, err := insightsJSON(b[i])
		if err != nil {
			return false, err
		}
		if string(x) != string(y) {
			return false, nil
		}
	}
	return true, nil
}
