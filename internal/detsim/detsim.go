// Package detsim is a deterministic in-process cluster simulation
// harness: it stands up a tree of real cmsd resolution cores (each with
// its real location cache, fast response queue and membership table)
// over simulated data servers backed by real stores, drives everything
// from a single vclock.Fake, and model-checks the paper's invariants as
// the run proceeds. A flat cell — one manager over at most Fanout
// servers — is simply a depth-1 tree.
//
// One seeded rand.Rand owns every choice the real system would make
// nondeterministically — frame latency, fault injection, client think
// time, crash and staging timing — and a discrete-event loop owns every
// delivery and timer firing. At any moment exactly one goroutine runs:
// the scheduler or one stepped resolution. Data servers answer queries
// as a synchronous scheduler sub-step. A seed therefore fully
// determines the execution, and the obs.TraceHash over the event trace
// is the replay assertion: same seed, same hash, byte for byte
// (DESIGN.md §7).
//
// The invariants checked, for every core of the tree:
//
//  1. Vector disjointness: for every cached location object,
//     Vq ∩ (Vh ∪ Vp) = ∅ and Vh ∩ Vp = ∅.
//  2. Flood uniqueness: at most one live query flood per path inside
//     the processing deadline (client-forced refreshes at the root
//     excepted — a refresh deliberately re-floods while an earlier
//     flood may still be outstanding).
//  3. Fast-queue conservation, in entries (Entries = Released +
//     Expired + Withdrawn + InUse) and in waiters (Entries + Joins =
//     ReleasedWaiters + ExpiredWaiters + Withdrawn + parked procs).
//  4. Vp service fence: no store serves a path while it is staging
//     from mass storage.
//  5. Exactly-once waiter delivery: every release/expiry hands the
//     result to exactly the parked procs it claims to, which the
//     scheduler verifies by collecting exactly that many resolution
//     completions before taking another step.
//  6. Eventual resolution: every client operation completes within a
//     depth-scaled bound, and no client is left parked when the event
//     queue drains.
//
// Redirect outcomes are additionally validated against a ground-truth
// file model: a final redirect must name an online server that actually
// holds (or is staging) the file. In strict runs — no fault plan, no
// crashes, no manager restarts — a noent for a file the model knows to
// exist is also a violation.
package detsim

import (
	"io"
	"time"

	"scalla/internal/cluster"
	"scalla/internal/faults"
)

// Config parameterizes one simulated run. The zero value of every
// field but Seed gets a default; Seed selects the execution.
type Config struct {
	// Seed fully determines the run.
	Seed int64

	// Servers is the number of simulated data servers (default 4, max
	// 16384).
	Servers int
	// Fanout is the maximum children per redirector (default 16, max
	// cluster.MaxMembers). Servers and Fanout fix the tree depth: up to
	// Fanout servers is a flat cell under one manager; 1024 servers at
	// fanout 16 is a depth-4 tree (root → 4 supervisors → 64
	// supervisors → servers).
	Fanout int
	// Clients is the number of concurrent client processes. Default 4.
	Clients int
	// OpsPerClient is how many operations each client performs.
	// Default 6.
	OpsPerClient int
	// Paths sizes the preloaded namespace. Default 12.
	Paths int

	// Plan, when active, injects frame faults (drop/dup/delay/reorder)
	// on every tree link using the scheduler's RNG. Reordering is
	// modeled as an extra latency draw, which displaces the frame past
	// later traffic.
	Plan faults.Plan
	// Crashes is how many server crash/restart cycles to schedule.
	Crashes int
	// ManagerRestarts is how many root-core restart cycles to schedule:
	// each closes the root core and re-forms its cell through the
	// staggered re-login storm.
	ManagerRestarts int

	// Debug, when non-nil, receives every trace line as it is hashed.
	Debug io.Writer
}

// The simulated world's fixed parameters. Latencies and delays are on
// the virtual clock, so they shape the protocol's interleavings, not
// the run's wall time.
const (
	slots          = 64                     // fast response queue anchors per core
	minLatency     = time.Millisecond       // lower bound of one-way frame latency
	maxLatency     = 10 * time.Millisecond  // upper bound of one-way frame latency
	restartDelay   = 5 * time.Second        // how long a crashed server stays down
	fullDelay      = time.Second            // per-level full delay (cmsd.Config.Levels scales it)
	period         = 133 * time.Millisecond // fast-response clock period
	lifetime       = time.Minute            // location-object lifetime (short, so window ticks happen)
	dropDelay      = 30 * time.Second       // offline-to-drop grace
	reconnectDelay = 200 * time.Millisecond // a child's redial delay after a root restart
	rejoinSpread   = 4 * reconnectDelay     // re-login storm spread (cmsd.NodeConfig.RejoinSpread)
	maxSimTime     = 10 * time.Minute       // events past it are not executed
	stageBase      = 750 * time.Millisecond // minimum staging time; a jitter of the same size is added

	// wedgeTimeout is the real-time bound on waiting for an expected
	// resolution completion. It fires only when a waiter was lost — the
	// exactly-once violation the harness exists to catch — or a core
	// deadlocked outright.
	wedgeTimeout = 10 * time.Second
	// maxAttempts bounds retries of a single operation before the
	// harness declares a livelock.
	maxAttempts = 200
)

func (c Config) withDefaults() Config {
	if c.Servers <= 0 {
		c.Servers = 4
	}
	if c.Servers > 16384 {
		c.Servers = 16384
	}
	if c.Fanout <= 1 {
		c.Fanout = 16
	}
	if c.Fanout > cluster.MaxMembers {
		c.Fanout = cluster.MaxMembers
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 6
	}
	if c.Paths <= 0 {
		c.Paths = 12
	}
	return c
}

// strict reports whether the run is fault-free, crash-free and
// restart-free, which arms the stronger invariants (no spurious noent).
func (c Config) strict() bool {
	return !c.Plan.Active() && c.Crashes == 0 && c.ManagerRestarts == 0
}

// Result summarizes one run.
type Result struct {
	Seed  int64
	Hash  string // trace digest; the replay assertion
	Lines int    // trace lines hashed
	Steps int    // scheduler steps executed

	Levels  int // redirector levels (1 = flat cell, 3 = depth-4 tree incl. servers)
	Cores   int // redirector cores simulated
	Servers int

	Ops       int // client operations completed
	Redirects int // client redirect outcomes (including interior hops)
	Waits     int
	NoEnts    int
	Retries   int

	Queries int64 // location-query frames sent, all levels
	Haves   int64 // positive responses sent, all levels

	HopP50 int // redirect hops per completed op, median
	HopMax int

	LatP50 time.Duration // simulated end-to-end op latency, median
	LatP99 time.Duration

	Crashed     int // crash events that took a server down
	Staged      int // staging promotions
	MgrRestarts int

	// Violations holds every invariant violation observed, in the
	// deterministic order the scheduler found them. Empty means the
	// run model-checked clean.
	Violations []string
}

// Run executes one simulation to completion and returns its summary.
func Run(cfg Config) Result {
	return newSim(cfg.withDefaults()).run()
}
