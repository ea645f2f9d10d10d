// Command perfbench is the repository's fleet benchmark. It runs one
// workload for a fixed host-time budget as a series of fresh child
// processes, checks every child's simulated report against a
// reference run at the same seed, and prints the medians as one JSON
// line. With --trace 1 it prints the per-layer figures instead. See
// README.md for the workloads, the metrics and how to read them.
//
// Usage (from the repository root, via run.sh which builds it):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 35 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sol/internal/fleet"
)

// mainAt is taken as early as the process allows, for setup_s.
var mainAt = time.Now()

const (
	// minReps is the fewest timed reps a run reports a median over.
	minReps = 5
	// hardStop ends the rep loop whatever --seconds asks for, and
	// deadline kills any child still running, so a whole invocation
	// ends well inside 180 s even on a stalled host.
	hardStop = 120 * time.Second
	deadline = 170 * time.Second
	// heldOutSalt derives the held-out seed: data no tuning run used.
	heldOutSalt = 0x5eed_0ff5e7
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: sweep, canary or rollout")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 35, "host seconds to measure")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
		child    = flag.String("child", "", "internal: run one rep in this mode and print its sample")
		spawned  = flag.Int64("spawned", 0, "internal: parent's spawn time, unix ns")
	)
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (have %s)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if *child != "" {
		s, err := runChild(*workload, *seed, *child, time.Unix(0, *spawned), mainAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child %s/%s: %v\n", *workload, *child, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// An interrupt or the deadline cancels ctx, which kills the running
	// child; spawn waits for it to exit before returning.
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(sig, deadline)
	defer cancel()
	b := &bench{ctx: ctx, workload: *workload, seed: *seed, budget: time.Duration(*seconds) * time.Second, start: time.Now()}
	var out result
	var err error
	if *trace == 1 {
		out, err = b.traced()
	} else {
		out, err = b.untraced()
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: a workload, a seed and a host-time budget.
type bench struct {
	ctx       context.Context
	workload  string
	seed      uint64
	budget    time.Duration
	start     time.Time
	attempted int
	failed    int
}

// spawn runs one child rep and decodes its sample.
func (b *bench) spawn(seed uint64, mode string) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	cmd := exec.CommandContext(b.ctx, exe,
		"-workload", b.workload, "-seed", strconv.FormatUint(seed, 10),
		"-child", mode, "-spawned", strconv.FormatInt(t.UnixNano(), 10))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s rep (seed %d): %v: %s", mode, seed, err, strings.TrimSpace(stderr.String()))
	}
	var s sample
	if err := json.Unmarshal(stdout.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("%s rep (seed %d): bad sample: %w", mode, seed, err)
	}
	return &s, nil
}

// check runs one rep and applies the output checks: the rep must
// succeed, match the reference digest, and, for rollout, complete.
// A failed check counts against the reps attempted.
func (b *bench) check(seed uint64, mode, ref string) *sample {
	b.attempted++
	s, err := b.spawn(seed, mode)
	if err == nil {
		err = checkRep(b.workload, mode, s, ref)
	}
	if err != nil {
		b.failed++
		fmt.Printf("perfbench: FAILED %v\n", err)
		return nil
	}
	return s
}

// checkRep is the per-rep output check. ref is the reference digest,
// empty when s is the reference itself.
func checkRep(workload, mode string, s *sample, ref string) error {
	if workload == "rollout" && mode != modeNoCamp && !s.Completed {
		return fmt.Errorf("%s rep: rollout campaign did not complete", mode)
	}
	if ref == "" {
		return nil
	}
	return checkDigest(mode+" rep", s.Digest, ref)
}

func (b *bench) timeLeft() bool {
	return time.Since(b.start) < b.budget
}

func (b *bench) mustStop() bool {
	return time.Since(b.start) > hardStop || b.ctx.Err() != nil
}

// reference runs the workload's reference rep at seed and returns its
// digest. Without a reference nothing can be checked, so its failure
// ends the run.
func (b *bench) reference(seed uint64) (string, error) {
	b.attempted++
	s, err := b.spawn(seed, modeReference)
	if err == nil {
		err = checkRep(b.workload, modeReference, s, "")
	}
	if err != nil {
		return "", fmt.Errorf("reference: %w", err)
	}
	return s.Digest, nil
}

// endToEnd reduces timed reps to the end-to-end metrics. setup_s and
// the memory and allocation figures are medians over reps. sim_rate
// and wall_s are the fastest rep's: other tenants of a shared host
// only ever slow a rep down, so the fastest rep of a run is the
// steadiest estimate of the program's own speed. On a 2-vCPU VM it
// spread between windows of reps half as much as the median rep, or
// less (README.md, "Why the fastest rep").
func endToEnd(reps []*sample) map[string]metric {
	each := func(f func(s *sample) float64) []float64 {
		xs := make([]float64, len(reps))
		for i, s := range reps {
			xs[i] = f(s)
		}
		return xs
	}
	med := func(f func(s *sample) float64) float64 { return median(each(f)) }
	return map[string]metric{
		"setup_s":     {med(func(s *sample) float64 { return s.SetupS }), "s"},
		"sim_rate":    {percentile(each(func(s *sample) float64 { return s.nodeSeconds() / s.RunS }), 100), "node-s/s"},
		"wall_s":      {percentile(each(func(s *sample) float64 { return s.WallS }), 0), "s"},
		"peak_rss_mb": {med(func(s *sample) float64 { return s.PeakRSSMB }), "MB"},
		"allocs_per_node_s": {med(func(s *sample) float64 {
			return perNodeSecond(float64(s.Allocs), s.Nodes, s.HorizonS)
		}), "objects/node-s"},
		"alloc_kb_per_node_s": {med(func(s *sample) float64 {
			return perNodeSecond(float64(s.AllocBytes)/1024, s.Nodes, s.HorizonS)
		}), "KB/node-s"},
	}
}

// diagnostics prints the host-noise reference and each metric's
// within-run spread, so a noisy window reads as one.
func diagnostics(w string, seed uint64, ref string, reps []*sample, m map[string]metric) {
	probe := make([]float64, len(reps))
	for i, s := range reps {
		probe[i] = s.ProbeNS
	}
	fmt.Printf("perfbench: workload=%s seed=%d reps=%d digest=%s\n", w, seed, len(reps), ref)
	fmt.Printf("perfbench: host-noise probe %.2f ns/hop median, spread %.3f (diagnostic, not gated)\n",
		median(probe), spread(probe))
	for _, name := range slices.Sorted(maps.Keys(m)) {
		xs := make([]float64, len(reps))
		for i, s := range reps {
			xs[i] = endToEnd([]*sample{s})[name].Value
		}
		fmt.Printf("perfbench:   %-20s %14.6g %-15s spread %.3f over reps, range %.6g..%.6g\n",
			name, m[name].Value, m[name].Unit, spread(xs), percentile(xs, 0), percentile(xs, 100))
	}
}

func (b *bench) untraced() (result, error) {
	ref, err := b.reference(b.seed)
	if err != nil {
		return result{}, err
	}
	var reps []*sample
	for (b.timeLeft() || len(reps) < minReps) && !b.mustStop() {
		if s := b.check(b.seed, modeRun, ref); s != nil {
			reps = append(reps, s)
		}
	}
	if len(reps) == 0 {
		return result{}, fmt.Errorf("no rep succeeded")
	}
	m := endToEnd(reps)
	diagnostics(b.workload, b.seed, ref, reps, m)
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// perLayer names every per-layer metric with its unit. A layer the
// workload does not exercise reports 0 (see README.md).
var perLayer = []struct{ name, unit string }{
	{"clock.events_per_node_s", "count"},
	{"clock.host_ns_per_event", "ns"},
	{"core.overclock.collected_per_node_s", "count"},
	{"core.overclock.rejected_frac", "ratio"},
	{"core.overclock.actions_per_node_s", "count"},
	{"core.harvest.collected_per_node_s", "count"},
	{"core.harvest.rejected_frac", "ratio"},
	{"core.harvest.actions_per_node_s", "count"},
	{"core.memory.collected_per_node_s", "count"},
	{"core.memory.rejected_frac", "ratio"},
	{"core.memory.actions_per_node_s", "count"},
	{"agents.overclock.host_us_per_node_s", "us"},
	{"agents.harvest.host_us_per_node_s", "us"},
	{"agents.memory.host_us_per_node_s", "us"},
	{"fleet.build_s", "s"},
	{"fleet.build_us_p50", "us"},
	{"fleet.build_us_p99", "us"},
	{"fleet.build_allocs_per_node", "count"},
	{"fleet.build_kb_per_node", "KB"},
	{"fleet.live_heap_mb", "MB"},
	{"fleet.run_allocs_per_node_s", "objects/node-s"},
	{"shard.epochs", "count"},
	{"shard.epoch_us_p50", "us"},
	{"shard.epoch_us_p99", "us"},
	{"shard.observe_s", "s"},
	{"shard.step_s", "s"},
	{"shard.free_s", "s"},
	{"shard.barrier_wait_s", "s"},
	{"shard.wait_frac", "ratio"},
	{"controlplane.campaign_s", "s"},
	{"controlplane.converted", "count"},
	{"controlplane.wave_events", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_frac", "ratio"},
	{"obs.trace_overhead_frac", "ratio"},
}

// traced alternates untraced and traced reps for the budget, adding
// reps without the campaign on rollout and the kind ladder on sweep,
// then re-checks the workload on the held-out seed. Each per-layer
// figure is the median over reps; every traced rep must match the
// untraced reference digest.
func (b *bench) traced() (result, error) {
	ref, err := b.reference(b.seed)
	if err != nil {
		return result{}, err
	}
	// Each pass runs its reps back to back, so a pair's difference is
	// taken within one host-noise window.
	var traced []*sample
	var overhead, campaign []float64
	ladder := map[string][]float64{}
	for (b.timeLeft() || len(traced) < 3) && !b.mustStop() {
		p := b.check(b.seed, modeRun, ref)
		t := b.check(b.seed, modeTraced, ref)
		if t != nil {
			traced = append(traced, t)
			if p != nil {
				overhead = append(overhead, t.WallS/p.WallS-1)
			}
		}
		if b.workload == "rollout" {
			if n := b.check(b.seed, modeNoCamp, ""); n != nil && p != nil {
				campaign = append(campaign, p.RunS-n.RunS)
			}
		}
		if b.workload == "sweep" {
			for _, k := range fleet.StandardKinds {
				if s := b.check(b.seed, modeKindPfx+k, ""); s != nil {
					ladder[k] = append(ladder[k], s.RunS*1e6/s.nodeSeconds())
				}
			}
		}
	}
	if len(traced) == 0 || len(overhead) == 0 {
		return result{}, fmt.Errorf("no traced/untraced rep pair succeeded")
	}
	lay := map[string][]float64{
		"obs.trace_overhead_frac": overhead,
		"controlplane.campaign_s": campaign,
	}
	for k, v := range ladder {
		lay["agents."+k+".host_us_per_node_s"] = v
	}
	for _, s := range traced {
		ns := s.nodeSeconds()
		s.Layers["clock.events_per_node_s"] = ratio(float64(s.Events), ns)
		s.Layers["clock.host_ns_per_event"] = ratio(s.RunS*1e9, float64(s.Events))
		for k, v := range s.Layers {
			lay[k] = append(lay[k], v)
		}
	}
	m := map[string]metric{}
	for _, pl := range perLayer {
		v := 0.0
		if xs := lay[pl.name]; len(xs) > 0 {
			v = median(xs)
		}
		m[pl.name] = metric{v, pl.unit}
	}
	held := b.seed ^ heldOutSalt
	if href, err := b.reference(held); err != nil {
		b.failed++
		fmt.Printf("perfbench: FAILED held-out seed %d: %v\n", held, err)
	} else if s := b.check(held, modeRun, href); s != nil {
		fmt.Printf("perfbench: held-out seed %d checks: digest=%s\n", held, href)
	}
	fmt.Printf("perfbench: workload=%s seed=%d traced reps=%d paired untraced reps=%d digest=%s\n",
		b.workload, b.seed, len(traced), len(overhead), ref)
	for _, name := range slices.Sorted(maps.Keys(m)) {
		fmt.Printf("perfbench:   %-38s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
