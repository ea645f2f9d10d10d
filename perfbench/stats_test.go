package main

import (
	"math"
	"testing"
	"time"

	"sol/internal/fleet"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// Python: statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// (8.25 - 2.75) / 5.5 == 1.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{7, 7, 7}); got != 0 {
		t.Errorf("spread of equal samples = %v, want 0", got)
	}
}

func TestPerNodeSecond(t *testing.T) {
	// 256 nodes × 10 s = 2560 node-seconds.
	if got := perNodeSecond(2560e3, 256, 10); got != 1000 {
		t.Errorf("perNodeSecond = %v, want 1000", got)
	}
	if got := perNodeSecond(5, 0, 10); got != 0 {
		t.Errorf("perNodeSecond with no node-seconds = %v, want 0", got)
	}
	s := &sample{Nodes: 10000, HorizonS: 0.25}
	if got := s.nodeSeconds(); got != 2500 {
		t.Errorf("nodeSeconds = %v, want 2500", got)
	}
}

// sim_rate and wall_s come from the fastest rep, each on its own;
// every other end-to-end metric is the median over reps.
func TestEndToEndReduction(t *testing.T) {
	rep := func(setup, run, wall, rss float64, allocs uint64) *sample {
		return &sample{Nodes: 100, HorizonS: 1, SetupS: setup, RunS: run, WallS: wall, PeakRSSMB: rss, Allocs: allocs, AllocBytes: 1024 * allocs}
	}
	m := endToEnd([]*sample{
		rep(1.0, 0.50, 1.6, 10, 300),
		rep(2.0, 0.25, 2.4, 30, 100),
		rep(3.0, 1.00, 1.2, 20, 200),
	})
	want := map[string]float64{
		"setup_s":             2,
		"sim_rate":            400, // 100 node-s over the fastest run phase, 0.25 s
		"wall_s":              1.2, // the fastest wall, from another rep
		"peak_rss_mb":         20,
		"allocs_per_node_s":   2,
		"alloc_kb_per_node_s": 2,
	}
	if len(m) != len(want) {
		t.Fatalf("endToEnd gave %d metrics, want %d", len(m), len(want))
	}
	for name, v := range want {
		if got := m[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func smallFleet(profile bool) fleet.Config {
	return fleet.Config{
		Nodes: 2, Duration: time.Second, Workers: 1, Profile: profile,
		Setup: fleet.StandardNode(fleet.StandardNodeConfig{Seed: 7}),
	}
}

// The digest must ignore the diagnostic wall-time fields a traced run
// adds and must agree across contract-equivalent drivers, or every
// traced rep would fail its check.
func TestDigestTracedMatchesUntraced(t *testing.T) {
	plain, err := fleet.Run(smallFleet(false))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := fleet.Run(smallFleet(true))
	if err != nil {
		t.Fatal(err)
	}
	if prof.Profile == nil {
		t.Fatal("profiled run published no profile")
	}
	stepped, err := fleet.RunStepped(smallFleet(false), 250*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleetDigest(plain)
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*fleet.Report{"profiled": prof, "stepped": stepped} {
		got, err := fleetDigest(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDigest(name, got, want); err != nil {
			t.Error(err)
		}
	}
	if prof.Profile == nil {
		t.Error("fleetDigest cleared the caller's report")
	}
}

// A change that moves one simulated statistic, and nothing a user
// would see as a failure, must still fail the digest check.
func TestDigestCatchesMovedStatistic(t *testing.T) {
	rep, err := fleet.Run(smallFleet(false))
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleetDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	rep.Kinds["harvest"].Stats.DataRejected++
	got, err := fleetDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	if checkDigest("moved", got, want) == nil {
		t.Error("digest check passed a report with a moved statistic")
	}
}

func TestCheckRep(t *testing.T) {
	ok := &sample{Digest: "abc", Completed: true}
	if err := checkRep("rollout", modeTraced, ok, "abc"); err != nil {
		t.Errorf("matching traced rep failed: %v", err)
	}
	if checkRep("sweep", modeTraced, &sample{Digest: "abd"}, "abc") == nil {
		t.Error("traced rep with a different digest passed")
	}
	if checkRep("rollout", modeRun, &sample{Digest: "abc"}, "abc") == nil {
		t.Error("rollout rep that did not complete passed")
	}
	if err := checkRep("rollout", modeNoCamp, &sample{Digest: "x"}, ""); err != nil {
		t.Errorf("no-campaign rep needs neither completion nor a digest: %v", err)
	}
}
