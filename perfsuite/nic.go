package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"clara"
	"clara/internal/click"
	"clara/internal/nicsim"
	"clara/internal/offload"
)

const (
	// simPackets is the trace length of each clara.Simulate call.
	simPackets = 3000
	// naiveCores is the core count of the first comparison, as in
	// examples/natoffload.
	naiveCores = 40
	// offloadRounds is the length of each controller simulation.
	offloadRounds = 96
	// goldenSeed is the offload seed the committed goldens were made at.
	goldenSeed = 7
)

// offloadElems are the elements whose predictions set the controller
// grid's capacities: the §5 NAT, a sketch and a classifier. The grid on
// all 17 would add ~9 s to every pass on a 2-CPU box.
var offloadElems = map[string]bool{"mazunat": true, "cmsketch": true, "ipclassifier": true}

// goldenDir holds the offload controller's golden trajectories, relative
// to the checkout root. They are read, never written.
var goldenDir = filepath.Join("internal", "offload", "testdata")

var policyKinds = []offload.PolicyKind{offload.PolicyStatic, offload.PolicyDynamic, offload.PolicyInsight}

// port is one element's what-if: its naive and Clara-advised NIC ports,
// the suggested core count, and the NIC capacities its prediction leaves
// the offload controller.
type port struct {
	name           string
	naive, advised *clara.NF
	wl             clara.Workload
	cores          int
	caps           offload.Capacities
	offload        bool // runs the controller grid
}

// simKey names one clara.Simulate call of a pass.
type simKey struct {
	elem, variant, cores int
}

// runNIC measures the nic-whatif workload (§5 porting method): each
// element's naive and advised ports are simulated at 40 cores and at the
// suggested core count, then the offload controller grid runs on the
// capacities its prediction derives.
func runNIC(opt options, rep *report) error {
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
		tool  *clara.Tool
		ports []port
	}
	st, teardown, err := setUp(rep, reps, func() (state, func(), error) {
		tool, _, err := loadTool(dir, tr, rep)
		if err != nil {
			return state{}, nil, err
		}
		ports, err := portLibrary(tool, opt.seed)
		return state{tool, ports}, func() {}, err
	})
	if err != nil {
		return err
	}
	defer teardown()
	params := st.tool.Params
	rng := rand.New(rand.NewSource(opt.seed ^ 0x0ff10ad))

	start := time.Now()
	share := 1.0
	if opt.trace {
		share = 1.0 / 2
	}
	until := phaseEnd(start, opt, share)
	rss := startRSS()
	rt0 := readRuntime()
	var (
		simMs, offMs       []float64
		passPkts, passRnds []float64
		ops                int
	)
	first := map[simKey]nicsim.Result{}
	// One pass covers every element; passes repeat while another is
	// likely to end before the deadline.
	var passDur time.Duration
	for p := 0; p == 0 || time.Now().Add(passDur/2).Before(until); p++ {
		passStart := time.Now()
		var pSim, pOff time.Duration
		for e, pt := range st.ports {
			for v, nf := range []*clara.NF{pt.naive, pt.advised} {
				for _, cores := range []int{naiveCores, pt.cores} {
					t0 := time.Now()
					r, err := clara.Simulate(params, nf, pt.wl, simPackets, cores)
					d := time.Since(t0)
					ops++
					rep.Attempted++
					if err != nil {
						return fmt.Errorf("simulate %s: %w", nf.Name, err)
					}
					pSim += d
					simMs = append(simMs, float64(d)/1e6)
					k := simKey{e, v, cores}
					if prev, ok := first[k]; !ok {
						first[k] = r
					} else if prev != r {
						rep.mismatch("simulate %s at %d cores differs across passes", nf.Name, cores)
					}
				}
			}
			if !pt.offload {
				continue
			}
			for _, cfg := range offloadGrid(pt.caps, rng.Int63()) {
				t0 := time.Now()
				_, err := offload.Simulate(cfg)
				d := time.Since(t0)
				ops++
				rep.Attempted++
				if err != nil {
					return fmt.Errorf("offload %s/%s: %w", cfg.Scenario.Name, cfg.Policy.Kind, err)
				}
				pOff += d
				offMs = append(offMs, float64(d)/1e6)
			}
		}
		passDur = time.Since(passStart)
		passPkts = append(passPkts, float64(4*len(st.ports)*simPackets)/pSim.Seconds())
		passRnds = append(passRnds, float64(len(offloadElems)*len(policyKinds)*len(offload.Scenarios())*offloadRounds)/pOff.Seconds())
	}
	rt1 := readRuntime()
	peak := rss.stopMB()

	rep.set("peak_rss_mb", peak, "MB", 0, "peak resident set while measuring")
	rep.set("throughput_per_s", median(passPkts), "1/s", len(passPkts),
		fmt.Sprintf("nic_sim_pkts_per_s: median per pass; offload_rounds_per_s %.0f", median(passRnds)))
	ss := summarize(simMs)
	rep.set("latency_p50_ms", ss.Median, "ms", ss.N, "one clara.Simulate call, 3000 pkts")
	rep.set("e2e.latency_tail_ms", ss.Tail, "ms", ss.N, fmt.Sprintf("clara.Simulate p%g", ss.TailP))
	os := summarize(offMs)
	rep.set("aux_p50_ms", os.Median, "ms", os.N, "one 96-round offload.Simulate run")
	rep.set("e2e.aux_tail_ms", os.Tail, "ms", os.N, fmt.Sprintf("offload.Simulate p%g", os.TailP))
	setRuntimeLayers(rep, rt0, rt1, ops, "simulate or offload run")

	if err := checkGoldens(goldenDir, rep); err != nil {
		return err
	}
	if !opt.trace {
		return nil
	}
	setSetupLayers(rep, tr.snapshot())
	if err := nicLayers(st.ports, params, first, phaseEnd(start, opt, 1), tr, rep); err != nil {
		return err
	}
	return writeSpans(opt, tr)
}

// portLibrary analyses every library element under small flows (the
// natoffload workload) with a traffic seed drawn from the workload seed,
// and builds its naive and advised ports.
func portLibrary(tool *clara.Tool, seed int64) ([]port, error) {
	rng := rand.New(rand.NewSource(seed))
	var ports []port
	for _, name := range click.Table2Order {
		e := clara.GetElement(name)
		mod, err := e.Module()
		if err != nil {
			return nil, err
		}
		wl := clara.SmallFlows
		wl.Seed = rng.Int63()
		ins, err := tool.Analyze(mod, clara.ProfileSetup{Setup: e.Setup, LPMTable: e.Routes}, wl)
		if err != nil {
			return nil, err
		}
		cores := ins.SuggestedCores
		if cores < 1 {
			cores = naiveCores
		}
		ports = append(ports, port{
			name:  name,
			naive: &clara.NF{Name: name + "-naive", Mod: mod, Setup: e.Setup, LPMTable: e.Routes},
			advised: &clara.NF{
				Name: name + "-clara", Mod: mod, Setup: e.Setup, LPMTable: e.Routes,
				Placement: ins.Placement, Packs: ins.Packs,
				Accel: clara.AccelConfig{CsumEngine: true},
			},
			wl:      wl,
			cores:   cores,
			caps:    offload.DeriveCapacities(tool.Params, ins.Prediction),
			offload: offloadElems[name],
		})
	}
	return ports, nil
}

// offloadGrid is the 3 scenarios × 3 policies controller grid over one
// element's capacities, the insight policy seeded from them.
func offloadGrid(caps offload.Capacities, seed int64) []offload.Config {
	var out []offload.Config
	for _, sc := range offload.Scenarios() {
		for _, kind := range policyKinds {
			pol := offload.BaselinePolicy(kind, sc)
			if kind == offload.PolicyInsight {
				pol = offload.SeedPolicy(sc, caps)
			}
			out = append(out, offload.Config{Scenario: sc, Capacity: caps, Policy: pol, Rounds: offloadRounds, Seed: seed})
		}
	}
	return out
}

// checkGoldens recomputes the nine controller trajectories the offload
// package pins (nominal prediction, seed 7, 96 rounds) and compares them
// byte for byte with the committed goldens.
func checkGoldens(dir string, rep *report) error {
	p := nicsim.DefaultParams()
	nominal := offload.NominalPrediction()
	caps := offload.DeriveCapacities(p, nominal)
	for _, sc := range offload.Scenarios() {
		for _, kind := range policyKinds {
			pol := offload.BaselinePolicy(kind, sc)
			if kind == offload.PolicyInsight {
				_, pol = offload.SeedFromPrediction(nominal, p, sc)
			}
			traj, err := offload.Simulate(offload.Config{Scenario: sc, Capacity: caps, Policy: pol, Rounds: offloadRounds, Seed: goldenSeed})
			if err != nil {
				return err
			}
			name := fmt.Sprintf("sim_%s_%s.golden", sc.Name, kind)
			want, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return err
			}
			if traj.NDJSON() != string(want) {
				rep.mismatch("offload trajectory differs from %s", name)
			}
		}
	}
	return nil
}

// nicLayers times clara.Simulate's three stages and the controller's
// seeding and simulation, one span per public call. It visits the
// elements round robin until the deadline (at least once each), running
// each visit twice, traced and untraced in alternating order; the tracing
// overhead is the median traced/untraced time ratio minus one. Results
// must equal the untraced clara.Simulate calls.
func nicLayers(ports []port, params clara.Params, want map[simKey]nicsim.Result, until time.Time, tr *tracer, rep *report) error {
	var ratios []float64
	var pkts, rounds, builds, seeds int
	var id int64
	visit := func(e int, ptr *tracer) (time.Duration, error) {
		pt := ports[e]
		t0 := time.Now()
		for v, nf := range []*clara.NF{pt.naive, pt.advised} {
			for _, cores := range []int{naiveCores, pt.cores} {
				id++
				root := ptr.begin("nic.simulate", id, -1)
				sp := ptr.begin("niccc.nf_build", id, root)
				b, err := nf.Build(params)
				ptr.end(sp)
				if err != nil {
					return 0, err
				}
				sp = ptr.begin("nicsim.gen_traces", id, root)
				ts, err := nicsim.GenTraces(b, pt.wl, simPackets, params)
				ptr.end(sp)
				if err != nil {
					return 0, err
				}
				sp = ptr.begin("nicsim.sim", id, root)
				r, err := nicsim.Simulate(params, cores, ts)
				ptr.end(sp)
				ptr.end(root)
				if err != nil {
					return 0, err
				}
				if r != want[simKey{e, v, cores}] {
					rep.mismatch("staged simulate of %s at %d cores differs from clara.Simulate", nf.Name, cores)
				}
				if ptr != nil {
					pkts += simPackets
					builds++
				}
			}
		}
		for _, sc := range offload.Scenarios() {
			if !pt.offload {
				break
			}
			id++
			sp := ptr.begin("offload.seed_policy", id, -1)
			pol := offload.SeedPolicy(sc, pt.caps)
			ptr.end(sp)
			sp = ptr.begin("offload.simulate", id, -1)
			_, err := offload.Simulate(offload.Config{Scenario: sc, Capacity: pt.caps, Policy: pol, Rounds: offloadRounds, Seed: id})
			ptr.end(sp)
			if err != nil {
				return 0, err
			}
			if ptr != nil {
				rounds += offloadRounds
				seeds++
			}
		}
		return time.Since(t0), nil
	}
	for i := 0; i < len(ports) || time.Now().Before(until); i++ {
		order := []*tracer{tr, nil}
		if i%2 == 1 {
			order = []*tracer{nil, tr}
		}
		var d [2]time.Duration
		for _, ptr := range order {
			t, err := visit(i%len(ports), ptr)
			if err != nil {
				return err
			}
			if ptr != nil {
				d[0] = t
			} else {
				d[1] = t
			}
		}
		ratios = append(ratios, d[0].Seconds()/d[1].Seconds())
	}
	st := selfTimes(tr.snapshot())
	rep.set("niccc.nf_build_ms", ratio(float64(st["niccc.nf_build"].Self)/1e6, float64(builds)), "ms", builds, "nicsim.NF.Build per simulate call")
	rep.set("nicsim.gen_traces_us_per_pkt", ratio(float64(st["nicsim.gen_traces"].Self)/1e3, float64(pkts)), "us", pkts, "interp in NIC-map mode")
	rep.set("nicsim.sim_us_per_pkt", ratio(float64(st["nicsim.sim"].Self)/1e3, float64(pkts)), "us", pkts, "")
	rep.set("offload.us_per_round", ratio(float64(st["offload.simulate"].Self)/1e3, float64(rounds)), "us", rounds, "")
	rep.set("offload.seed_policy_us", ratio(float64(st["offload.seed_policy"].Self)/1e3, float64(seeds)), "us", seeds, "")
	rep.set("trace.overhead_share", median(ratios)-1, "ratio", len(ratios), "median traced/untraced ratio over paired element visits")
	return nil
}
