package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"sol/internal/clock"
	"sol/internal/controlplane"
	"sol/internal/fleet"
	"sol/internal/obs"
	"sol/internal/shard"
)

// Workload shapes. Each workload exercises a different layer of the
// stack; README.md records why each was chosen and what it measured.
const (
	// sweep: the streaming batch driver, one worker. Nearly all host
	// time is the per-event path (clock, core, agents, node, memsim).
	sweepNodes   = 256
	sweepHorizon = 10 * time.Second

	// canary: a resident 10k-node fleet on the sharded conductor, a 1%
	// strided cohort stepped at 2 ms and polled for health. Fleet build
	// and shard coordination dominate.
	canaryNodes   = 10000
	canaryShards  = 32
	canaryHorizon = 250 * time.Millisecond
	canaryCadence = 2 * time.Millisecond
	canaryStride  = 100

	// rollout: a healthy 4-wave campaign on the classic engine at
	// 100 ms epochs, the only workload where the control plane runs.
	rolloutNodes    = 1000
	rolloutHorizon  = time.Second
	rolloutInterval = 100 * time.Millisecond
)

var workloads = []string{"sweep", "canary", "rollout"}

// Child modes. Every mode runs the workload once in a fresh process.
const (
	modeRun       = "run"       // timed, untraced
	modeReference = "reference" // a contract-equivalent driver shape, for the digest
	modeTraced    = "traced"    // timed with the per-layer wrappers and program profiling on
	modeNoCamp    = "nocampaign"
	modeKindPfx   = "kind:" // sweep shape with one agent kind, for the agents ladder
)

// sample is what one child process reports about its run.
type sample struct {
	Digest    string  `json:"digest"`
	Completed bool    `json:"completed"`
	Nodes     int     `json:"nodes"`
	HorizonS  float64 `json:"horizon_s"`
	// SetupS and WallS count from the parent's spawn of the process,
	// excluding the host-noise probe; RunS is the run phase alone.
	SetupS     float64            `json:"setup_s"`
	RunS       float64            `json:"run_s"`
	WallS      float64            `json:"wall_s"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Allocs     uint64             `json:"allocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	Events     uint64             `json:"events"`
	ProbeNS    float64            `json:"probe_ns"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

func (s *sample) nodeSeconds() float64 { return float64(s.Nodes) * s.HorizonS }

// allocCounts is a snapshot of the Go runtime's cumulative counters.
type allocCounts struct{ objs, bytes, gcs uint64 }

var allocMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

// allocReader reads allocCounts without allocating, so reading the
// counters does not move them. Not safe for concurrent use.
type allocReader struct{ s []metrics.Sample }

func newAllocReader() *allocReader {
	r := &allocReader{s: make([]metrics.Sample, len(allocMetricNames))}
	for i, n := range allocMetricNames {
		r.s[i].Name = n
	}
	return r
}

func (r *allocReader) read() allocCounts {
	metrics.Read(r.s)
	return allocCounts{
		objs:  r.s[0].Value.Uint64() + r.s[1].Value.Uint64(),
		bytes: r.s[2].Value.Uint64(),
		gcs:   r.s[3].Value.Uint64(),
	}
}

func (a allocCounts) sub(b allocCounts) allocCounts {
	return allocCounts{a.objs - b.objs, a.bytes - b.bytes, a.gcs - b.gcs}
}

// buildTimer wraps fleet.Config.Setup from outside the program. Each
// node's build time lands in its own slot, indexed by idx, so the
// wrapper needs no locks; the slots are read only after the driver has
// returned. When the fleet is built serially (one worker) it also
// takes per-node allocation deltas; in every mode the call that
// finishes the last node runs afterBuild once.
type buildTimer struct {
	ns         []int64
	serial     bool
	objs       []uint64
	bytes      []uint64
	reader     *allocReader
	done       atomic.Int64
	afterBuild func()
}

func newBuildTimer(nodes int, serial bool) *buildTimer {
	b := &buildTimer{ns: make([]int64, nodes), serial: serial}
	if serial {
		b.objs = make([]uint64, nodes)
		b.bytes = make([]uint64, nodes)
		b.reader = newAllocReader()
	}
	return b
}

func (b *buildTimer) wrap(setup fleet.NodeFunc) fleet.NodeFunc {
	return func(idx int, clk *clock.Virtual) (*fleet.Supervisor, error) {
		var a0 allocCounts
		if b.serial {
			a0 = b.reader.read()
		}
		t0 := time.Now()
		sup, err := setup(idx, clk)
		b.ns[idx] = time.Since(t0).Nanoseconds()
		if b.serial {
			d := b.reader.read().sub(a0)
			b.objs[idx], b.bytes[idx] = d.objs, d.bytes
		}
		if b.done.Add(1) == int64(len(b.ns)) && b.afterBuild != nil {
			b.afterBuild()
		}
		return sup, err
	}
}

// layers records the per-layer figures of a traced child.
type layers map[string]float64

// buildLayers fills the fleet.build_* figures. buildS is the host time
// of the build phase: the summed per-node builds for the streaming
// driver, the span from entry point to last built node otherwise.
func (l layers) buildLayers(b *buildTimer, buildS float64, buildObjs, buildBytes uint64) {
	us := make([]float64, len(b.ns))
	for i, ns := range b.ns {
		us[i] = float64(ns) / 1e3
	}
	n := float64(len(b.ns))
	l["fleet.build_s"] = buildS
	l["fleet.build_us_p50"] = percentile(us, 50)
	l["fleet.build_us_p99"] = percentile(us, 99)
	l["fleet.build_allocs_per_node"] = float64(buildObjs) / n
	l["fleet.build_kb_per_node"] = float64(buildBytes) / 1024 / n
}

// settle ends set-up. It collects what the build left behind, so that
// every rep starts its run phase from the same heap state, as
// testing.B does before it starts its timer. Without it, the canary's
// run phase collected its 570 MB heap in some reps and not in others,
// a swing of up to 45% in run time. The collection counts in setup_s.
// settle then records the live heap into l, when l is non-nil, and
// marks the fleet ready.
func (r *runner) settle(l layers) {
	runtime.GC()
	if l != nil {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		l["fleet.live_heap_mb"] = float64(s[0].Value.Uint64()) / (1 << 20)
	}
	r.ready()
}

// profileLayers fills the shard.* figures the conductor's profiler
// publishes; p may be nil when the driver has none.
func (l layers) profileLayers(p *obs.Profile) {
	if p == nil {
		return
	}
	t := p.Totals()
	l["shard.epochs"] = float64(t.Counts.Epochs)
	l["shard.step_s"] = float64(t.StepNS) / 1e9
	l["shard.free_s"] = float64(t.FreeNS) / 1e9
	l["shard.barrier_wait_s"] = float64(t.BarrierNS) / 1e9
	l["shard.wait_frac"] = t.WaitFrac()
}

// coreLayers fills the deterministic core.<kind>.* statistics.
func (l layers) coreLayers(rep *fleet.Report, nodeS float64) {
	for _, k := range fleet.StandardKinds {
		ks, ok := rep.Kinds[k]
		if !ok {
			continue
		}
		st := ks.Stats
		l["core."+k+".collected_per_node_s"] = ratio(float64(st.DataCollected), nodeS)
		l["core."+k+".rejected_frac"] = ratio(float64(st.DataRejected), float64(st.DataCollected))
		l["core."+k+".actions_per_node_s"] = ratio(float64(st.Actions), nodeS)
	}
}

// fleetDigest hashes the fleet report with its diagnostic wall-time
// and heap fields dropped, leaving only simulated results.
func fleetDigest(rep *fleet.Report) (string, error) {
	r := *rep
	r.Profile, r.Trace = nil, nil
	b, err := json.Marshal(&r)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

func rolloutDigest(rep *controlplane.Report) (string, error) {
	r := *rep
	fr := *rep.Fleet
	fr.Profile, fr.Trace = nil, nil
	r.Fleet, r.WaveProfiles = &fr, nil
	b, err := json.Marshal(&r)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// runner holds one child's clocks: procInit is the host time from the
// parent's spawn of the process to main, and start is when the
// workload began, after the probe.
type runner struct {
	procInit time.Duration
	start    time.Time
	reader   *allocReader
	a0       allocCounts
	s        sample
}

// since returns host time from spawn to now, leaving out the probe.
func (r *runner) since() float64 {
	return (r.procInit + time.Since(r.start)).Seconds()
}

func (r *runner) ready() { r.s.SetupS = r.since() }

// finish records the end of the checked run.
func (r *runner) finish() {
	r.s.WallS = r.since()
	d := r.reader.read().sub(r.a0)
	r.s.Allocs, r.s.AllocBytes = d.objs, d.bytes
}

// runChild runs workload w once in mode and returns the sample.
func runChild(w string, seed uint64, mode string, spawned, mainAt time.Time) (*sample, error) {
	ns, err := probeNSPerHop()
	if err != nil {
		return nil, fmt.Errorf("host-noise probe: %w", err)
	}
	r := &runner{procInit: mainAt.Sub(spawned), reader: newAllocReader()}
	r.s.ProbeNS = ns
	r.start = time.Now()
	r.a0 = r.reader.read()
	switch w {
	case "sweep":
		err = r.sweep(seed, mode)
	case "canary":
		err = r.canary(seed, mode)
	case "rollout":
		err = r.rollout(seed, mode)
	default:
		err = fmt.Errorf("unknown workload %q", w)
	}
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.s.PeakRSSMB = rss
	return &r.s, nil
}

// goLayers fills the Go runtime figures of a traced child.
func (l layers) goLayers(total allocCounts) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l["go.gc_cycles"] = float64(total.gcs)
	l["go.gc_cpu_frac"] = ms.GCCPUFraction
}

func (r *runner) sweep(seed uint64, mode string) error {
	std := fleet.StandardNodeConfig{Seed: seed}
	if k, ok := strings.CutPrefix(mode, modeKindPfx); ok {
		std.Kinds = []string{k}
	}
	cfg := fleet.Config{Nodes: sweepNodes, Duration: sweepHorizon, Workers: 1, Setup: fleet.StandardNode(std)}
	r.s.Nodes, r.s.HorizonS = cfg.Nodes, cfg.Duration.Seconds()
	var bt *buildTimer
	var l layers
	if mode == modeTraced {
		cfg.Profile = true
		bt = newBuildTimer(cfg.Nodes, true)
		cfg.Setup = bt.wrap(cfg.Setup)
		l = layers{}
	}
	// The streaming driver builds each node inside the run: set-up is
	// only the config, by design, and no fleet is resident.
	r.settle(l)
	t0 := r.since()
	var rep *fleet.Report
	var err error
	if mode == modeReference {
		rep, err = fleet.RunStepped(cfg, cfg.Duration/4, nil)
	} else {
		rep, err = fleet.Run(cfg)
	}
	if err != nil {
		return err
	}
	r.s.RunS = r.since() - t0
	r.s.Events = rep.Events
	if r.s.Digest, err = fleetDigest(rep); err != nil {
		return err
	}
	r.finish()
	if bt != nil {
		var objs, bytes uint64
		var ns int64
		for i := range bt.objs {
			objs += bt.objs[i]
			bytes += bt.bytes[i]
			ns += bt.ns[i]
		}
		l.buildLayers(bt, float64(ns)/1e9, objs, bytes)
		total := r.reader.read().sub(r.a0)
		l["fleet.run_allocs_per_node_s"] = perNodeSecond(float64(total.objs-objs), cfg.Nodes, r.s.HorizonS)
		l.profileLayers(rep.Profile)
		l.coreLayers(rep, r.s.nodeSeconds())
		l.goLayers(total)
		r.s.Layers = l
	}
	return nil
}

// canaryCohort is the 1% strided cohort; the seed picks its offset.
func canaryCohort(seed uint64) []int {
	var c []int
	for i := int(seed % canaryStride); i < canaryNodes; i += canaryStride {
		c = append(c, i)
	}
	return c
}

func (r *runner) canary(seed uint64, mode string) error {
	cfg := fleet.Config{
		Nodes: canaryNodes, Duration: canaryHorizon, Shards: canaryShards,
		Setup: fleet.StandardNode(fleet.StandardNodeConfig{Seed: seed}),
	}
	r.s.Nodes, r.s.HorizonS = cfg.Nodes, cfg.Duration.Seconds()
	traced := mode == modeTraced
	if mode == modeReference {
		// Reports are identical across worker widths, shard counts and
		// stepping patterns: one worker, 8 shards, one free-run span.
		cfg.Workers, cfg.Shards = 1, 8
	}
	var bt *buildTimer
	if traced {
		cfg.Profile = true
		bt = newBuildTimer(cfg.Nodes, false)
		cfg.Setup = bt.wrap(cfg.Setup)
	}
	co, err := fleet.NewCoordinator(cfg)
	if err != nil {
		return err
	}
	defer co.StopAll()
	buildS := r.since() - r.procInit.Seconds()
	var l layers
	var build allocCounts
	if traced {
		build = r.reader.read().sub(r.a0)
		l = layers{}
	}
	r.settle(l)
	con := co.Conductor()
	byShard := make([][]int, con.Shards())
	for _, idx := range canaryCohort(seed) {
		s := con.ShardOf(idx)
		byShard[s] = append(byShard[s], idx)
	}
	scratch := make([][]fleet.MemberHealth, con.Shards())
	// Per-shard epoch clocks, written only on the shard's goroutine
	// and read after the span returns. The first epoch of a shard also
	// free-runs its unobserved cells, so intervals start at the second.
	last := make([]time.Time, con.Shards())
	epochUS := make([][]float64, con.Shards())
	observeNS := make([]int64, con.Shards())
	t0 := r.since()
	if mode == modeReference {
		co.StepFor(cfg.Duration)
	} else {
		err = co.Span(shard.Span{
			Until:    cfg.Duration,
			Interval: canaryCadence,
			Stepped:  func(s int) []int { return byShard[s] },
			OnEpoch: func(s, _ int, _, _ time.Duration) {
				var e0 time.Time
				if traced {
					e0 = time.Now()
					if !last[s].IsZero() {
						epochUS[s] = append(epochUS[s], float64(e0.Sub(last[s]).Nanoseconds())/1e3)
					}
				}
				for _, idx := range byShard[s] {
					scratch[s] = co.Supervisor(idx).HealthDetailInto(scratch[s])
				}
				if traced {
					last[s] = time.Now()
					observeNS[s] += last[s].Sub(e0).Nanoseconds()
				}
			},
		})
		if err != nil {
			return err
		}
	}
	r.s.RunS = r.since() - t0
	rep := co.Report()
	r.s.Events = rep.Events
	if r.s.Digest, err = fleetDigest(rep); err != nil {
		return err
	}
	r.finish()
	if traced {
		total := r.reader.read().sub(r.a0)
		l.buildLayers(bt, buildS, build.objs, build.bytes)
		l["fleet.run_allocs_per_node_s"] = perNodeSecond(float64(total.objs-build.objs), cfg.Nodes, r.s.HorizonS)
		var all []float64
		var obsNS int64
		for s := range epochUS {
			all = append(all, epochUS[s]...)
			obsNS += observeNS[s]
		}
		l["shard.epoch_us_p50"] = percentile(all, 50)
		l["shard.epoch_us_p99"] = percentile(all, 99)
		l["shard.observe_s"] = float64(obsNS) / 1e9
		l.profileLayers(co.Profile())
		l.coreLayers(rep, r.s.nodeSeconds())
		l.goLayers(total)
		r.s.Layers = l
	}
	return nil
}

func (r *runner) rollout(seed uint64, mode string) error {
	cfg, err := controlplane.NewScenario(controlplane.ScenarioSpec{
		Scenario: controlplane.ScenarioHealthy,
		Nodes:    rolloutNodes,
		Duration: rolloutHorizon,
		Interval: rolloutInterval,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	r.s.Nodes, r.s.HorizonS = cfg.Fleet.Nodes, cfg.Fleet.Duration.Seconds()
	switch mode {
	case modeReference:
		cfg.Fleet.Workers = 1
	case modeNoCamp:
		cfg.Campaign = nil
	}
	traced := mode == modeTraced
	var build allocCounts
	var buildS, built float64
	var l layers
	if traced {
		l = layers{}
	}
	// controlplane.Run builds the fleet itself; the wrapper ends set-up
	// from the last node's Setup call.
	bt := newBuildTimer(cfg.Fleet.Nodes, false)
	bt.afterBuild = func() {
		buildS = r.since() - r.procInit.Seconds()
		if traced {
			build = r.reader.read().sub(r.a0)
		}
		r.settle(l)
		built = r.since()
	}
	cfg.Fleet.Setup = bt.wrap(cfg.Fleet.Setup)
	cfg.Fleet.Profile = traced
	rep, err := controlplane.Run(cfg)
	if err != nil {
		return err
	}
	r.s.RunS = r.since() - built
	r.s.Events = rep.Fleet.Events
	r.s.Completed = rep.Completed
	if r.s.Digest, err = rolloutDigest(rep); err != nil {
		return err
	}
	r.finish()
	if traced {
		total := r.reader.read().sub(r.a0)
		l.buildLayers(bt, buildS, build.objs, build.bytes)
		l["fleet.run_allocs_per_node_s"] = perNodeSecond(float64(total.objs-build.objs), cfg.Fleet.Nodes, r.s.HorizonS)
		l.profileLayers(rep.Fleet.Profile)
		l.coreLayers(rep.Fleet, r.s.nodeSeconds())
		l["controlplane.converted"] = float64(rep.Converted)
		l["controlplane.wave_events"] = float64(len(rep.Trace))
		l.goLayers(total)
		r.s.Layers = l
	}
	return nil
}
