package experiments

import (
	"fmt"
	"math"
	"time"

	"scalla/internal/baseline"
	"scalla/internal/bitvec"
	"scalla/internal/cache"
	"scalla/internal/names"
	"scalla/internal/vclock"
)

// hepPath generates realistic HEP-style file names: deep common
// prefixes, run/partition numbers, and a numeric suffix — the kind of
// structure that stresses a hash table's modulo choice.
func hepPath(i int) string {
	return fmt.Sprintf("/store/data/Run2012%c/SingleMu/AOD/v%d/%04d/%04d/F%08d.root",
		'A'+rune(i%4), i%3+1, i/100000, (i/1000)%100, i)
}

// lowbitPath returns a name whose CRC32 has its low `bits` bits forced
// to zero by brute-forcing a numeric suffix. Such low-bit structure is
// invisible to a Fibonacci modulus (which mixes all 32 bits) but
// catastrophic for a power-of-two modulus (which keeps only low bits) —
// the mechanism behind the paper's footnote-4 observation.
func lowbitPath(i int, bits uint) string {
	mask := uint32(1)<<bits - 1
	base := fmt.Sprintf("/store/degenerate/F%08d-", i)
	for t := 0; ; t++ {
		name := fmt.Sprintf("%s%06d", base, t)
		if names.Hash(name)&mask == 0 {
			return name
		}
	}
}

// idealExcess is the expected number of excess collisions when n keys
// hash uniformly into m buckets: n - m(1 - (1-1/m)^n).
func idealExcess(m int64, n int) float64 {
	return float64(n) - float64(m)*(1-math.Pow(1-1/float64(m), float64(n)))
}

// E4FibVsPow2 reproduces footnote 4 of Section III-A1: the paper found
// "much higher collision rates with power-of-two sized tables compared
// to Fibonacci-sized" despite CRC32's uniformity. The experiment
// compares the two moduli at EQUAL load factor over three key
// populations: realistic HEP paths, names with binary-counter
// suffixes, and names whose CRC32 carries low-bit structure (the
// production pathology: a power-of-two modulus sees only the low bits,
// a Fibonacci modulus mixes all 32).
func E4FibVsPow2(s Scale) Table {
	mFib := int64(s.pick(196_418, 1_346_269)) // Fibonacci numbers
	mPow := int64(s.pick(131_072, 1_048_576)) // powers of two
	degBits := uint(8)                        // forced-zero low bits
	const load = 0.75

	t := Table{
		ID:     "E4",
		Title:  "hash dispersion: Fibonacci vs power-of-two moduli (equal load factor)",
		Claim:  "much higher collision rates with power-of-two sized tables (III-A1 fn.4)",
		Header: []string{"key population", "sizing", "buckets", "entries", "excess collisions", "vs ideal", "max chain"},
	}
	populations := []struct {
		name string
		key  func(i int) string
	}{
		{"HEP paths", hepPath},
		{"binary-counter names", func(i int) string {
			b := []byte("/store/blockfile-XXXX")
			b[17], b[18], b[19], b[20] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
			return string(b)
		}},
		{"low-bit-structured", func(i int) string { return lowbitPath(i, degBits) }},
	}
	for _, pop := range populations {
		n := int(load * float64(mPow)) // same n for both moduli
		// Degenerate keys are expensive to mint; cap that population.
		if pop.name == "low-bit-structured" && n > 100_000 {
			n = 100_000
		}
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = names.Hash(pop.key(i))
		}
		for _, mod := range []struct {
			name string
			m    int64
		}{{"fibonacci", mFib}, {"power-of-two", mPow}} {
			tab := make([]int32, mod.m)
			for _, h := range keys {
				tab[int64(h)%mod.m]++
			}
			excess, maxc := 0, 0
			for _, v := range tab {
				if v > 1 {
					excess += int(v - 1)
				}
				if int(v) > maxc {
					maxc = int(v)
				}
			}
			ideal := idealExcess(mod.m, n)
			t.Rows = append(t.Rows, []string{
				pop.name, mod.name, fmt.Sprint(mod.m), fmt.Sprint(n),
				fmt.Sprint(excess), fmt.Sprintf("%.2fx", float64(excess)/ideal),
				fmt.Sprint(maxc),
			})
		}
	}
	t.Notes = append(t.Notes,
		"'vs ideal' normalizes by the uniform-hashing expectation at that load, so moduli compare fairly",
		"well-mixed keys disperse ~ideally under BOTH moduli; the power-of-two pathology needs keys with",
		fmt.Sprintf("low-bit structure (here: CRC32 low %d bits constant), where Fibonacci stays near ideal", degBits))
	return t
}

// E5LookupResize reproduces Section III-A1's growth behaviour: the
// table grows geometrically (so resizes become rare) and look-up cost
// stays constant as the cache fills.
func E5LookupResize(s Scale) Table {
	n := s.pick(200_000, 2_000_000)
	t := Table{
		ID:     "E5",
		Title:  "look-up cost and resize count while filling the cache",
		Claim:  "look-up time constant; geometric growth makes resizing cease quickly (III-A1)",
		Header: []string{"entries", "buckets", "resizes (cumulative)", "lookup mean"},
	}
	c := cache.New(cache.Config{
		InitialBuckets: 17711,
		SyncSweep:      true,
		Clock:          vclock.NewFake(),
	})
	checkpoints := []int{n / 100, n / 10, n / 2, n}
	next := 0
	// probe reports the fastest of a few passes, so a pass that CPU load
	// from elsewhere slowed down does not read as a cost of the table.
	probe := func(upto int) time.Duration {
		const probes, passes = 20000, 5
		best := time.Duration(math.MaxInt64)
		for range passes {
			start := time.Now()
			for i := 0; i < probes; i++ {
				c.Fetch(hepPath(i*7919%upto), bitvec.Full, 0)
			}
			best = min(best, time.Since(start)/probes)
		}
		return best
	}
	for i := 0; i < n; i++ {
		c.Add(hepPath(i), bitvec.Full, 0)
		if next < len(checkpoints) && i+1 == checkpoints[next] {
			st := c.Stats()
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(i + 1), fmt.Sprint(st.Buckets),
				fmt.Sprint(st.Resizes), fmtDur(probe(i + 1)),
			})
			next++
		}
	}
	t.Notes = append(t.Notes, "lookup mean: the fastest of 5 passes of 20 000 fetches at each checkpoint")
	return t
}

// E6MemoryEquilibrium reproduces Section III-A2: the cache size is
// bounded by creation-rate × lifetime, and the paper's arithmetic
// (28.8M objects over 8h at 1000/s ≈ 16GB) follows from the per-object
// footprint.
func E6MemoryEquilibrium(s Scale) Table {
	t := Table{
		ID:     "E6",
		Title:  "cache equilibrium: objects bounded by rate × lifetime",
		Claim:  "≤28.8M objects per 8h at 1000 creates/s; ~16GB bound; far less in practice (III-A2)",
		Header: []string{"create rate", "lifetime", "equilibrium objects (measured)", "rate×Lt (bound)", "projected bytes"},
	}
	// Simulate with a fake clock: create at a fixed per-window rate and
	// tick the 64 windows; the population must plateau at rate×lifetime.
	type cfg struct {
		perWindow int
		label     string
		rate      string
	}
	cases := []cfg{
		{perWindow: s.pick(200, 2000), label: "8h", rate: ""},
		{perWindow: s.pick(50, 500), label: "8h", rate: ""},
	}
	for _, cs := range cases {
		c := cache.New(cache.Config{SyncSweep: true, Clock: vclock.NewFake(), InitialBuckets: 17711})
		id := 0
		peak := int64(0)
		// Run 3 lifetimes' worth of windows.
		for w := 0; w < 3*cache.Windows; w++ {
			for k := 0; k < cs.perWindow; k++ {
				c.Add(hepPath(id), bitvec.Full, 0)
				id++
			}
			c.Tick()
			if l := c.Len(); l > peak {
				peak = l
			}
		}
		bound := int64(cs.perWindow) * cache.Windows
		// Express the per-window rate as per-second at the paper's
		// 7.5-minute window (Lt=8h).
		perSec := float64(cs.perWindow) / (7.5 * 60)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f/s", perSec),
			cs.label,
			fmt.Sprint(peak),
			fmt.Sprint(bound),
			fmt.Sprintf("%.1f MB", float64(peak)*(float64(cache.LocSize)+64)/1e6),
		})
	}
	t.Rows = append(t.Rows, []string{
		"1000/s (paper)", "8h",
		"—",
		fmt.Sprint(1000 * 8 * 3600),
		fmt.Sprintf("%.1f GB", float64(1000*8*3600)*(float64(cache.LocSize)+64)/1e9),
	})
	t.Notes = append(t.Notes,
		fmt.Sprintf("location object footprint: %d B struct + ~64 B key ≈ %d B/object (paper: ~580 B)",
			cache.LocSize, cache.LocSize+64))
	return t
}

// E7Eviction reproduces Section III-A3: each window tick touches only
// ~1/64 ≈ 1.6% of the cache, and removal happens off the look-up path;
// the full-scan baseline pauses for the whole table every sweep.
func E7Eviction(s Scale) Table {
	n := s.pick(100_000, 1_000_000)
	t := Table{
		ID:     "E7",
		Title:  "sliding-window eviction vs full-scan baseline",
		Claim:  "on average only 1.6% of the cache is processed at any one time (III-A3)",
		Header: []string{"scheme", "entries", "work per tick", "fraction", "pause per tick"},
	}

	// Windowed cache: spread n entries across all 64 windows, then
	// measure one tick.
	fc := vclock.NewFake()
	c := cache.New(cache.Config{SyncSweep: true, Clock: fc, InitialBuckets: 17711})
	perWindow := n / cache.Windows
	id := 0
	for w := 0; w < cache.Windows; w++ {
		for k := 0; k < perWindow; k++ {
			c.Add(hepPath(id), bitvec.Full, 0)
			id++
		}
		c.Tick()
	}
	entries := c.Len()
	before := c.Stats()
	start := time.Now()
	c.Tick() // expires exactly one window
	tickCost := time.Since(start)
	after := c.Stats()
	touched := (after.Hidden - before.Hidden) + (after.Rechained - before.Rechained)
	t.Rows = append(t.Rows, []string{
		"sliding window (64)",
		fmt.Sprint(entries),
		fmt.Sprint(touched),
		fmt.Sprintf("%.2f%%", 100*float64(touched)/float64(entries)),
		fmtDur(tickCost),
	})

	// Full-scan baseline with the same population: one sweep visits
	// everything under the look-up lock.
	fb := vclock.NewFake()
	sc := baseline.NewScanCache(8*time.Hour, fb)
	for i := 0; i < int(entries); i++ {
		sc.Add(hepPath(i), bitvec.Full)
	}
	fb.Advance(time.Hour) // nothing expired: worst-case useless scan
	scanned, _, pause := sc.Sweep()
	t.Rows = append(t.Rows, []string{
		"full scan (baseline)",
		fmt.Sprint(sc.Len()),
		fmt.Sprint(scanned),
		"100.00%",
		fmtDur(pause),
	})
	return t
}

// E8Correction reproduces Section III-A4: correcting stale location
// state on fetch costs O(1), and the per-window memoized correction
// vector makes a post-reconfiguration fetch storm cost barely more than
// a plain fetch.
func E8Correction(s Scale) Table {
	n := s.pick(100_000, 500_000)
	t := Table{
		ID:     "E8",
		Title:  "lazy correction cost with Vwc memoization",
		Claim:  "O(1) correction per fetch; memoized Vwc makes it ~constant (III-A4, Fig. 3)",
		Header: []string{"phase", "fetches", "total", "per fetch", "memo hit rate"},
	}
	c := cache.New(cache.Config{SyncSweep: true, Clock: vclock.NewFake(), InitialBuckets: 17711})
	vm := bitvec.Full
	for i := 0; i < n; i++ {
		ref, _, _ := c.Add(hepPath(i), vm, 0)
		c.Update(hepPath(i), ref.Hash(), i%32, false, false)
	}

	// Baseline: fetch storm with no configuration change.
	start := time.Now()
	for i := 0; i < n; i++ {
		c.Fetch(hepPath(i), vm, 0)
	}
	plain := time.Since(start)
	t.Rows = append(t.Rows, []string{"no config change", fmt.Sprint(n),
		fmtMs(plain), fmtDur(plain / time.Duration(n)), "—"})

	// A server connects: every cached object is now stale. The next
	// fetch of each applies the Figure-3 correction.
	c.ServerConnected(40)
	before := c.Stats()
	start = time.Now()
	for i := 0; i < n; i++ {
		c.Fetch(hepPath(i), vm, 0)
	}
	corrected := time.Since(start)
	after := c.Stats()
	applied := after.CorrApplied - before.CorrApplied
	memoHits := after.CorrMemoHit - before.CorrMemoHit
	t.Rows = append(t.Rows, []string{"after server connect", fmt.Sprint(n),
		fmtMs(corrected), fmtDur(corrected / time.Duration(n)),
		fmt.Sprintf("%.2f%% (%d/%d)", 100*float64(memoHits)/float64(applied), memoHits, applied)})
	t.Rows = append(t.Rows, []string{"correction overhead", "",
		fmt.Sprintf("%.1f%%", 100*(float64(corrected)-float64(plain))/float64(plain)), "", ""})
	return t
}

// E12Rechain reproduces Section III-C1's deferred re-chaining argument:
// re-chaining refreshed objects individually costs a chain scan per
// refresh (quadratic-ish overall); deferring to the sweep re-chains
// everything in one linear pass.
func E12Rechain(s Scale) Table {
	n := s.pick(5_000, 40_000)
	t := Table{
		ID:     "E12",
		Title:  "deferred vs eager re-chaining under refresh churn",
		Claim:  "deferred re-chaining is one linear task; eager is more quadratic (III-C1)",
		Header: []string{"scheme", "objects refreshed", "total time", "per refresh"},
	}
	for _, eager := range []bool{false, true} {
		c := cache.New(cache.Config{
			SyncSweep:      true,
			EagerRechain:   eager,
			Clock:          vclock.NewFake(),
			InitialBuckets: 17711,
		})
		// All objects land in one window chain, the eager scheme's
		// worst case.
		refs := make([]cache.Ref, n)
		for i := 0; i < n; i++ {
			refs[i], _, _ = c.Add(hepPath(i), bitvec.Full, 0)
		}
		c.Tick() // move the clock so a refresh changes the window
		start := time.Now()
		for i := 0; i < n; i++ {
			c.Refresh(refs[i], bitvec.Full, -1)
		}
		if !eager {
			// Deferred work happens when the original chain is swept
			// (at tick 64); charge the intervening (empty) ticks and
			// the one linear re-chaining pass here, but stop before the
			// refreshed window itself expires.
			for w := 0; w < cache.Windows-1; w++ {
				c.Tick()
			}
		}
		total := time.Since(start)
		name := "deferred (paper)"
		if eager {
			name = "eager (baseline)"
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprint(n), fmtMs(total),
			fmtDur(total / time.Duration(n))})
	}
	t.Notes = append(t.Notes,
		"eager re-chaining unlinks from a singly-linked window chain: O(chain) per refresh")
	return t
}
