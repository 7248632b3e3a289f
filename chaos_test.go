package scalla

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"scalla/internal/backoff"
	"scalla/internal/client"
	"scalla/internal/faults"
	"scalla/internal/obs"
	"scalla/internal/transport"
)

// The chaos suite runs a 64-server tree (fanout 8: two manager
// replicas, 8 supervisors, 74 nodes) on a fault-injecting network and
// asserts the paper's availability story end to end: every resolve
// under randomized drops, crashes, partitions, and slow links completes
// with success or a typed error inside a bounded envelope — no hangs —
// and once a dead server's eviction settles, no client is redirected to
// it. Seed it via CHAOS_SEED; on failure the seed is written to
// chaos-failure-seed.txt so CI can preserve the repro.
//
// Run it with:
//
//	go test -race -run Chaos -v .

// chaosSeed resolves the run's seed (CHAOS_SEED env, default 1).
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("CHAOS_SEED=%q is not an integer: %v", s, err)
	}
	return v
}

// typedChaosErr reports whether err maps to the client's typed error
// set — the only failures the chaos contract allows.
func typedChaosErr(err error) bool {
	for _, want := range []error{
		client.ErrNotExist, client.ErrExist, client.ErrIO, client.ErrTimeout,
		client.ErrNoServer, client.ErrAllReplicasFailed,
	} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// chaosRig bundles the cluster, the fault network, and the shared
// tracer for one chaos run.
type chaosRig struct {
	c      *Cluster
	fnet   *faults.Network
	tracer *obs.Tracer
	cl     *Client
	rng    *rand.Rand

	files map[string][]byte // path -> expected content
	holds map[string][2]int // path -> replica server indexes
}

// readWithRecovery drives one resolve to completion the way the paper
// prescribes (Section III-C1): read, and on a typed failure request a
// cache refresh and retry, until the budget runs out. An untyped error
// or corrupted content fails the test immediately; a typed error at
// budget exhaustion is returned to the caller (legitimate while the
// only replicas are cut off).
func (r *chaosRig) readWithRecovery(t *testing.T, path string, budget time.Duration) error {
	t.Helper()
	deadline := time.Now().Add(budget)
	var lastErr error
	for {
		data, err := r.cl.ReadFile(path)
		if err == nil {
			if !bytes.Equal(data, r.files[path]) {
				t.Fatalf("chaos: %s corrupted: got %q want %q", path, data, r.files[path])
			}
			return nil
		}
		if !typedChaosErr(err) {
			t.Fatalf("chaos: %s failed with untyped error: %v", path, err)
		}
		lastErr = err
		if time.Now().After(deadline) {
			return lastErr
		}
		// The paper's recovery: refresh the stale cache entry and retry.
		r.cl.Relocate(path, false, "")
	}
}

// filesUnder returns a few paths with a replica in supervisor supIdx's
// subtree (server i logs into supervisor i mod 8).
func (r *chaosRig) filesUnder(supIdx int) []string {
	nSups := len(r.c.Supervisors)
	var out []string
	for p, h := range r.holds {
		if h[0]%nSups == supIdx || h[1]%nSups == supIdx {
			out = append(out, p)
			if len(out) == 6 {
				break
			}
		}
	}
	return out
}

func TestChaosClusterSurvivesRandomFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("74-node chaos cluster; skipped with -short")
	}
	seed := chaosSeed(t)
	t.Cleanup(func() {
		if t.Failed() {
			os.WriteFile("chaos-failure-seed.txt", []byte(fmt.Sprintf("%d\n", seed)), 0o644)
			t.Logf("chaos: failing seed %d written to chaos-failure-seed.txt", seed)
		}
	})
	t.Logf("chaos: seed %d", seed)

	tracer := obs.NewTracer(8192, nil)
	tracer.SetEnabled(true)
	fnet := faults.Wrap(transport.NewInProc(transport.InProcConfig{}), faults.Config{
		Seed:   seed,
		Tracer: tracer,
	})

	const (
		nServers   = 64
		nFiles     = 48
		fullDelay  = 500 * time.Millisecond
		pingEvery  = 100 * time.Millisecond
		missed     = 3
		opBudget   = 12 * time.Second // generous ×24 of the full delay: -race on shared CPUs
		settleWait = time.Duration(missed)*pingEvery + fullDelay
	)

	c, err := StartCluster(Options{
		Servers:         nServers,
		ManagerReplicas: 2,
		Fanout:          8,
		Net:             fnet,
		FullDelay:       fullDelay,
		FastPeriod:      50 * time.Millisecond,
		PingInterval:    pingEvery,
		MissedPings:     missed,
		DropDelay:       2 * time.Second,
		ReconnectDelay:  25 * time.Millisecond,
		Tracer:          tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	rig := &chaosRig{
		c: c, fnet: fnet, tracer: tracer,
		rng:   rand.New(rand.NewSource(seed ^ 0x5ca11a)),
		files: make(map[string][]byte),
		holds: make(map[string][2]int),
	}
	rig.cl = client.New(client.Config{
		Net:         fnet,
		Managers:    c.ManagerAddrs(),
		RPCTimeout:  2 * time.Second,
		RPCAttempts: 3,
		WaitBudget:  10 * time.Second,
		Retry:       backoff.Policy{Base: 10 * time.Millisecond, Max: 200 * time.Millisecond},
		RetrySeed:   seed,
	})
	defer rig.cl.Close()

	// Two replicas per file; i and i+7 are never under the same
	// supervisor (server i logs into supervisor i mod 8), so a dead
	// subtree always leaves one replica reachable.
	for i := 0; i < nFiles; i++ {
		p := fmt.Sprintf("/chaos/f%02d", i)
		data := []byte("chaos content of " + p)
		a, b := i%nServers, (i+7)%nServers
		c.Store(a).Put(p, data)
		c.Store(b).Put(p, data)
		rig.files[p] = data
		rig.holds[p] = [2]int{a, b}
	}

	// Warm-up sweep: everything must resolve on a clean network.
	for p := range rig.files {
		if err := rig.readWithRecovery(t, p, opBudget); err != nil {
			t.Fatalf("chaos: warm-up read of %s failed: %v", p, err)
		}
	}

	paths := make([]string, 0, nFiles)
	for p := range rig.files {
		paths = append(paths, p)
	}

	// opsSweep reads a random sample of files under whatever faults are
	// live, timing each op against the no-hang envelope.
	opsSweep := func(round string, n int) (failed int) {
		for k := 0; k < n; k++ {
			p := paths[rig.rng.Intn(len(paths))]
			start := time.Now()
			err := rig.readWithRecovery(t, p, opBudget)
			elapsed := time.Since(start)
			if elapsed > opBudget+fullDelay {
				t.Errorf("chaos[%s]: %s took %v — exceeded the no-hang envelope %v",
					round, p, elapsed, opBudget+fullDelay)
			}
			if err != nil {
				failed++
				t.Logf("chaos[%s]: %s gave up with typed error after %v: %v", round, p, elapsed, err)
			}
		}
		return failed
	}

	const rounds = 6
	for round := 0; round < rounds; round++ {
		switch round % 6 {
		case 0: // frame-drop storm across every link
			rig.fnet.SetPlan(faults.Plan{Drop: 0.05})
			if f := opsSweep("drop-storm", 12); f > 0 {
				t.Errorf("chaos[drop-storm]: %d reads failed; drops alone must always recover", f)
			}
			rig.fnet.SetPlan(faults.Plan{})

		case 1: // slow links: delayed (and thus reordered) frames
			rig.fnet.SetPlan(faults.Plan{Delay: 0.2, DelayMin: time.Millisecond, DelayMax: 25 * time.Millisecond})
			if f := opsSweep("slow-links", 12); f > 0 {
				t.Errorf("chaos[slow-links]: %d reads failed; latency alone must always recover", f)
			}
			rig.fnet.SetPlan(faults.Plan{})

		case 2: // duplicate + reorder on one supervisor's control plane
			supIdx := rig.rng.Intn(len(c.Supervisors))
			sup := c.Supervisors[supIdx]
			rig.fnet.SetLinkPlan(sup.CtlAddr(), faults.Plan{Dup: 0.25, Reorder: 0.25})
			// Refreshes force query floods through the duplicated links
			// (warm reads alone would not touch the control plane), and
			// the sleep lets a few ping/pong rounds through it too.
			for _, p := range rig.filesUnder(supIdx) {
				rig.cl.Relocate(p, false, "")
			}
			time.Sleep(2 * pingEvery)
			if f := opsSweep("ctl-dup", 12); f > 0 {
				t.Errorf("chaos[ctl-dup]: %d reads failed; the control plane is idempotent", f)
			}
			rig.fnet.ClearLinkPlan(sup.CtlAddr())

		case 3: // crash a server, verify eviction, restart it
			victim := rig.rng.Intn(nServers)
			dead := c.Servers[victim].DataAddr()
			rig.fnet.Sever(dead)
			c.CrashServer(victim)
			time.Sleep(settleWait) // let the disconnect and correction settle
			// Zero redirects to dead servers: once eviction settles,
			// no resolve may vector a client at the corpse.
			for _, p := range paths {
				h := rig.holds[p]
				if h[0] != victim && h[1] != victim {
					continue
				}
				addr, lerr := rig.cl.Locate(p, false)
				for retries := 0; lerr != nil && retries < 8; retries++ {
					rig.cl.Relocate(p, false, dead)
					addr, lerr = rig.cl.Locate(p, false)
				}
				if lerr != nil {
					t.Errorf("chaos[crash]: %s unresolvable with one replica dead: %v", p, lerr)
					continue
				}
				if addr == dead {
					t.Errorf("chaos[crash]: %s redirected to dead server %s", p, dead)
				}
			}
			opsSweep("crash", 8)
			rig.fnet.Heal(dead)
			if err := c.RestartServer(victim); err != nil {
				t.Fatalf("chaos[crash]: restart of server %d failed: %v", victim, err)
			}

		case 4: // partition one supervisor subtree, then heal it
			sup := c.Supervisors[rig.rng.Intn(len(c.Supervisors))]
			rig.fnet.Sever(sup.CtlAddr())
			rig.fnet.Sever(sup.DataAddr())
			time.Sleep(settleWait)
			// Every file keeps a replica outside the subtree, so reads
			// must still succeed (refresh retries route around it).
			if f := opsSweep("partition", 12); f > 0 {
				t.Errorf("chaos[partition]: %d reads failed despite a live replica outside the cut", f)
			}
			rig.fnet.Heal(sup.CtlAddr())
			rig.fnet.Heal(sup.DataAddr())

		case 5: // zombie control plane: silent links exercise the
			// missed-heartbeat eviction rather than a clean disconnect
			supIdx := rig.rng.Intn(len(c.Supervisors))
			sup := c.Supervisors[supIdx]
			rig.fnet.SetLinkPlan(sup.CtlAddr(), faults.Plan{Drop: 1})
			// Kick off refreshes so query floods are in flight at the
			// zombie supervisor when heartbeat eviction declares its
			// children dead — the MemberDown re-flood path.
			done := make(chan struct{})
			go func() {
				defer close(done)
				for _, p := range rig.filesUnder(supIdx) {
					rig.cl.Relocate(p, false, "")
				}
			}()
			time.Sleep(settleWait)
			opsSweep("zombie-ctl", 8)
			rig.fnet.ClearLinkPlan(sup.CtlAddr())
			<-done
		}
		// Let reconnections finish before the next round piles on.
		time.Sleep(settleWait)
	}

	// A dead lease: cut the data face of the server the client's lease
	// on one file names, leaving its control link up so the manager
	// keeps vectoring there too, and read the file again.
	leasedPath := paths[rig.rng.Intn(len(paths))]
	fh, err := rig.cl.Open(leasedPath)
	if err != nil {
		t.Fatalf("chaos[dead-lease]: open of %s on a healed network: %v", leasedPath, err)
	}
	leasedSrv := fh.Server()
	fh.Close()
	rig.fnet.Sever(leasedSrv)
	if err := rig.readWithRecovery(t, leasedPath, opBudget); err != nil {
		t.Errorf("chaos[dead-lease]: %s unreadable with its leased server cut: %v", leasedPath, err)
	}
	rig.fnet.Heal(leasedSrv)

	// All-replicas-failed surfaces as the typed error with the full
	// tried set — sever both managers and look.
	for _, m := range c.ManagerAddrs() {
		rig.fnet.Sever(m)
	}
	_, err = rig.cl.Locate("/chaos/f00", false)
	if !errors.Is(err, client.ErrAllReplicasFailed) {
		t.Errorf("chaos: with all managers cut, Locate error = %v, want ErrAllReplicasFailed", err)
	}
	var are *client.AllReplicasError
	if errors.As(err, &are) {
		if len(are.Tried) != len(c.ManagerAddrs()) {
			t.Errorf("chaos: AllReplicasError.Tried = %v, want both managers", are.Tried)
		}
	} else if err != nil {
		t.Errorf("chaos: error %v does not carry *AllReplicasError", err)
	}
	for _, m := range c.ManagerAddrs() {
		rig.fnet.Heal(m)
	}

	// Final sweep on a healed network: every file must read back intact.
	deadline := time.Now().Add(2 * time.Minute)
	for _, p := range paths {
		var lastErr error
		for {
			if lastErr = rig.readWithRecovery(t, p, opBudget); lastErr == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("chaos: %s never recovered after healing: %v", p, lastErr)
			}
		}
	}

	// Vacuity: reads were served both on location leases and by walks
	// after a lease went stale under the faults.
	ls := rig.cl.LeaseStats()
	t.Logf("chaos: leases %+v", ls)
	if ls.Hits == 0 || ls.Fallbacks == 0 {
		t.Errorf("chaos: LeaseStats = %+v; want hits and fallbacks", ls)
	}

	// The injections must be visible operator-side: counters and /tracez
	// spans (op "fault") next to the resolutions they disturbed.
	st := fnet.Stats()
	t.Logf("chaos: faults injected: %+v", st)
	if st.Dropped == 0 || st.SeveredConns == 0 {
		t.Errorf("chaos: expected drops and severed conns, got %+v", st)
	}
	if st.Duplicated+st.Reordered == 0 {
		t.Errorf("chaos: the ctl-dup round injected nothing: %+v", st)
	}
	var faultSpans, refloods int
	for _, sp := range tracer.Spans(0) {
		switch sp.Op {
		case "fault":
			faultSpans++
		case "reflood":
			refloods++
		}
	}
	t.Logf("chaos: tracer holds %d fault spans, %d refloods (of %d total)",
		faultSpans, refloods, len(tracer.Spans(0)))
	if faultSpans == 0 {
		t.Error("chaos: no fault spans reached the tracer")
	}
}
