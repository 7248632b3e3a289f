package detsim

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"scalla/internal/faults"
)

// testPlan is the fault schedule the package tests compose in: a mix
// heavy enough to force expiries, refloods, and duplicate releases.
func testPlan() faults.Plan {
	return faults.Plan{
		Drop: 0.10, Dup: 0.05, Delay: 0.05, Reorder: 0.05,
		DelayMin: 5 * time.Millisecond, DelayMax: 60 * time.Millisecond,
	}
}

// faulty is the default flat cell under the fault plan with two server
// crash/restart cycles.
func faulty(seed int64) Config {
	return Config{Seed: seed, Plan: testPlan(), Crashes: 2}
}

// depth4 is a depth-4 tree: 1024 servers at fanout 16 over 69 cores.
func depth4(seed int64) Config {
	return Config{Seed: seed, Servers: 1024, Fanout: 16, OpsPerClient: 3, Paths: 6}
}

func TestReplayIsByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := Run(Config{Seed: seed})
		b := Run(Config{Seed: seed})
		if a.Hash != b.Hash || a.Lines != b.Lines {
			t.Errorf("seed %d: strict replay diverged: %s (%d lines) vs %s (%d lines)",
				seed, a.Hash, a.Lines, b.Hash, b.Lines)
		}
		c := Run(faulty(seed))
		d := Run(faulty(seed))
		if c.Hash != d.Hash || c.Lines != d.Lines {
			t.Errorf("seed %d: faulty replay diverged: %s vs %s", seed, c.Hash, d.Hash)
		}
		if a.Hash == c.Hash {
			t.Errorf("seed %d: fault schedule did not change the execution", seed)
		}
	}
}

func TestSeedsProduceDistinctExecutions(t *testing.T) {
	a := Run(Config{Seed: 1})
	b := Run(Config{Seed: 2})
	if a.Hash == b.Hash {
		t.Fatalf("seeds 1 and 2 produced the same trace %s", a.Hash)
	}
}

func TestStrictRunsModelCheckClean(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := Run(Config{Seed: seed})
		if len(r.Violations) != 0 {
			t.Errorf("seed %d: %v", seed, r.Violations)
		}
		// A flat cell has no interior hops: every op ends in exactly one
		// redirect or noent.
		if r.Ops != r.Redirects+r.NoEnts {
			t.Errorf("seed %d: %d ops but %d redirects + %d noents",
				seed, r.Ops, r.Redirects, r.NoEnts)
		}
	}
}

func TestFaultyRunsModelCheckClean(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := Run(faulty(seed))
		if len(r.Violations) != 0 {
			t.Errorf("seed %d: %v", seed, r.Violations)
		}
	}
}

// TestHarnessExercisesTheMachinery guards against the sweep going
// vacuous: across a handful of seeds the runs must actually park
// clients into full delays, promote staged files, and crash servers —
// otherwise the invariants are checked against a world where nothing
// happens.
func TestHarnessExercisesTheMachinery(t *testing.T) {
	var waits, staged, crashed, redirects int
	for seed := int64(1); seed <= 10; seed++ {
		r := Run(faulty(seed))
		waits += r.Waits
		staged += r.Staged
		crashed += r.Crashed
		redirects += r.Redirects
	}
	if waits == 0 {
		t.Error("no run imposed a full delay")
	}
	if staged == 0 {
		t.Error("no run promoted a staged file")
	}
	if crashed == 0 {
		t.Error("no run crashed a server")
	}
	if redirects == 0 {
		t.Error("no run redirected a client")
	}
}

func TestDebugMirrorsTrace(t *testing.T) {
	var buf bytes.Buffer
	r := Run(Config{Seed: 3, Debug: &buf})
	lines := strings.Count(buf.String(), "\n")
	if lines != r.Lines {
		t.Fatalf("debug writer saw %d lines, trace hashed %d", lines, r.Lines)
	}
	if !strings.HasPrefix(buf.String(), "init seed=3") {
		t.Fatalf("debug output does not start with the init line: %q",
			buf.String()[:40])
	}
}

func TestTreeTopology(t *testing.T) {
	flat := Run(Config{Seed: 1})
	if flat.Levels != 1 || flat.Cores != 1 || flat.Servers != 4 {
		t.Errorf("default cell: levels=%d cores=%d servers=%d, want a depth-1 tree of 4 servers",
			flat.Levels, flat.Cores, flat.Servers)
	}
	res := Run(depth4(1))
	if res.Levels != 3 {
		t.Errorf("1024 servers at fanout 16: levels = %d, want 3 (depth-4 tree)", res.Levels)
	}
	if res.Cores != 1+4+64 {
		t.Errorf("cores = %d, want 69 (1 manager + 4 + 64 supervisors)", res.Cores)
	}
	if res.Servers != 1024 {
		t.Errorf("servers = %d, want 1024", res.Servers)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Ops != 12 {
		t.Errorf("completed %d ops, want 12", res.Ops)
	}
}

func TestTreeStrictHops(t *testing.T) {
	// In a strict run every completed lookup walks the redirector chain
	// once: a depth-4 resolve is at most 3 redirect hops.
	res := Run(depth4(7))
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.HopMax > res.Levels {
		t.Errorf("hop max = %d, want ≤ %d (one redirect per level)", res.HopMax, res.Levels)
	}
	if res.Redirects == 0 || res.Queries == 0 || res.Haves == 0 {
		t.Errorf("vacuous run: redirects=%d queries=%d haves=%d",
			res.Redirects, res.Queries, res.Haves)
	}
}

func TestTreeReplay(t *testing.T) {
	a := Run(depth4(42))
	b := Run(depth4(42))
	if a.Hash != b.Hash || a.Lines != b.Lines {
		t.Fatalf("same seed diverged: %s vs %s", a.Hash, b.Hash)
	}
	if a.Steps != b.Steps || a.Ops != b.Ops {
		t.Fatalf("same seed diverged: steps %d/%d ops %d/%d", a.Steps, b.Steps, a.Ops, b.Ops)
	}
}

func TestTreeFaulted(t *testing.T) {
	for _, cfg := range []Config{depth4(3), faulty(3)} {
		cfg.Plan = testPlan()
		cfg.Crashes = 8
		cfg.ManagerRestarts = 1
		res := Run(cfg)
		for _, v := range res.Violations {
			t.Errorf("%d servers: violation: %s", res.Servers, v)
		}
		if res.MgrRestarts != 1 {
			t.Errorf("%d servers: manager restarts = %d, want 1", res.Servers, res.MgrRestarts)
		}
	}
}

func TestTreeDepth3Comparison(t *testing.T) {
	// 64 servers at fanout 16 is a depth-3 tree (one supervisor level):
	// the hop ceiling drops with the depth.
	res := Run(Config{Seed: 5, Servers: 64, Fanout: 16, OpsPerClient: 3, Paths: 6})
	if res.Levels != 2 {
		t.Fatalf("64 servers at fanout 16: levels = %d, want 2", res.Levels)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.HopMax > res.Levels {
		t.Errorf("hop max = %d, want ≤ %d", res.HopMax, res.Levels)
	}
}
