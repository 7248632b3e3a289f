package pcache

import (
	"bytes"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"scalla/internal/mux"
	"scalla/internal/proto"
)

// The detsim-style invariant for the edge cache: once an origin
// server's eviction epoch advances past an entry's binding (the proxy
// learned the binding is stale — server dropped, file moved, content
// replaced), the proxy must NEVER again serve bytes through that
// binding. The hit path is fenced by the per-slot epoch stamp
// (entry.sepoch vs Proxy.slotEpoch), the proxy-local mirror of the
// Figure-3 connect-epoch correction.
//
// Run it alone with:
//
//	DETSIM_SEED=1 go test -race -run Detsim ./internal/pcache

// pcacheDetsimSeed resolves the seed (DETSIM_SEED env, default 1) the
// same way the root detsim sweep does.
func pcacheDetsimSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("DETSIM_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("DETSIM_SEED=%q is not an integer: %v", s, err)
	}
	return v
}

// TestDetsimProxyEpochInvariant drives a seeded schedule of content
// generations bouncing between origin servers. Every round it checks
// both halves of the invariant:
//
//  1. Directly: a handle bound before the epoch advance refuses to
//     serve from cache afterwards (readFrame reports a miss, never
//     pre-epoch bytes).
//  2. End to end: a client read after the move returns only the
//     current generation — stale bytes are impossible, not merely
//     unlikely, because every pre-epoch block rides an entry whose
//     sepoch no longer matches.
func TestDetsimProxyEpochInvariant(t *testing.T) {
	seed := pcacheDetsimSeed(t)
	rng := rand.New(rand.NewSource(seed))
	const servers = 3
	o := startOrigin(t, servers)
	p, cl := startProxy(t, o, Config{})
	fhs := mux.NewHandles[*phandle](&p.fhs)

	const path = "/store/epoch.root"
	const size = 96 << 10
	gen := byte(1)
	cur := rng.Intn(servers)
	if err := o.stores[cur].Put(path, payload(gen, size)); err != nil {
		t.Fatal(err)
	}

	const rounds = 25
	for round := 0; round < rounds; round++ {
		// Converge and verify: the only acceptable bytes are the
		// current generation's.
		got, err := cl.ReadFile(path)
		if err != nil {
			t.Fatalf("seed %d round %d: read: %v", seed, round, err)
		}
		if !bytes.Equal(got, payload(gen, size)) {
			t.Fatalf("seed %d round %d: proxy served stale bytes (gen %d expected)",
				seed, round, gen)
		}

		// Bind a handle against the current (soon-to-be-stale) epoch.
		h, fh := openHandle(t, p, fhs, path)

		// Mutate behind the proxy's back: new generation, possibly on a
		// different server, then advance the old holder's epoch.
		next := rng.Intn(servers)
		gen++
		if err := o.stores[next].Put(path, payload(gen, size)); err != nil {
			t.Fatal(err)
		}
		if next != cur {
			if err := o.stores[cur].Unlink(path); err != nil {
				t.Fatal(err)
			}
		}
		p.InvalidateOrigin(o.srvs[cur].DataAddr())

		// Invariant, direct form: the pre-epoch handle must refuse the
		// cache. A hit here would be pre-epoch bytes escaping.
		if f, n, ok := p.readFrame(h, proto.Read{FH: fh, Off: 0, N: 4096}, 1); ok {
			f.Release()
			t.Fatalf("seed %d round %d: hit path served %d bytes through a binding "+
				"whose slot epoch advanced", seed, round, n)
		}
		fhs.Drop(fh)
		cur = next
	}

	// The schedule must actually have exercised invalidation.
	if s := p.Stats(); s.Invalidated == 0 {
		t.Fatalf("seed %d: schedule went vacuous: %+v", seed, s)
	}
}
