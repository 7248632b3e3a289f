package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Each experiment must produce a non-degenerate table at quick scale.
// These are smoke-plus tests: beyond "it ran", each asserts the
// direction of the paper's claim where it is deterministic enough to
// check in CI time.

func runQuick(t *testing.T, fn func(Scale) Table) Table {
	t.Helper()
	tab := fn(Scale{Quick: true})
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows (notes: %v)", tab.ID, tab.Notes)
	}
	if s := tab.String(); !strings.Contains(s, tab.ID) {
		t.Errorf("table renders without its id: %q", s)
	}
	return tab
}

// parse helpers for table cells.
func cellDur(t *testing.T, cell string) time.Duration {
	t.Helper()
	cell = strings.TrimSpace(cell)
	var v float64
	var unit string
	if _, err := sscan(cell, &v, &unit); err != nil {
		t.Fatalf("cannot parse duration cell %q", cell)
	}
	switch unit {
	case "µs":
		return time.Duration(v * 1e3)
	case "ms":
		return time.Duration(v * 1e6)
	default:
		t.Fatalf("unknown unit in %q", cell)
		return 0
	}
}

func sscan(cell string, v *float64, unit *string) (int, error) {
	i := strings.IndexFunc(cell, func(r rune) bool {
		return !(r >= '0' && r <= '9' || r == '.' || r == '-')
	})
	if i <= 0 {
		return 0, strconv.ErrSyntax
	}
	f, err := strconv.ParseFloat(cell[:i], 64)
	if err != nil {
		return 0, err
	}
	*v = f
	*unit = cell[i:]
	return 2, nil
}

func cellInt(t *testing.T, cell string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
	if err != nil {
		t.Fatalf("cannot parse int cell %q", cell)
	}
	return n
}

func TestE1TreeLatency(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E1TreeLatency)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 depths", len(tab.Rows))
	}
	// Depth-3 must still be a cached path (well under any wait), and
	// the p50 should not be dramatically *faster* than depth 1 — use
	// medians with generous slack, since parallel CI runs make means
	// noisy.
	d1 := cellDur(t, tab.Rows[0][4])
	d3 := cellDur(t, tab.Rows[2][4])
	if d3 < d1/3 {
		t.Errorf("deeper tree much faster at p50: %v vs %v (suspicious)", d3, d1)
	}
	if d3 > 50*time.Millisecond {
		t.Errorf("depth-3 cached resolve %v — not a cached path", d3)
	}
}

func TestE2UncachedLookup(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E2UncachedLookup)
	cold := cellDur(t, tab.Rows[0][2])
	warm := cellDur(t, tab.Rows[1][2])
	if cold <= warm {
		t.Errorf("uncached (%v) not slower than cached (%v)", cold, warm)
	}
	if cold > 100*time.Millisecond {
		t.Errorf("uncached mean %v — fast response did not engage", cold)
	}
}

func TestE3LoadSlope(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E3LoadSlope)
	if len(tab.Rows) < 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE4FibVsPow2(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E4FibVsPow2)
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 3 populations x 2 moduli", len(tab.Rows))
	}
	ratio := func(cell string) float64 {
		var v float64
		var unit string
		if _, err := sscan(cell, &v, &unit); err != nil || unit != "x" {
			t.Fatalf("cannot parse ratio cell %q", cell)
		}
		return v
	}
	// Well-mixed keys: both moduli near the uniform-hashing ideal.
	for _, row := range tab.Rows[:4] {
		if r := ratio(row[5]); r > 1.2 {
			t.Errorf("%s/%s dispersion ratio %.2f, want ~1.0", row[0], row[1], r)
		}
	}
	// Low-bit-structured keys: power-of-two degrades hard, Fibonacci
	// stays much closer to ideal — footnote 4's observation.
	fib := ratio(tab.Rows[4][5])
	pow := ratio(tab.Rows[5][5])
	if pow < 1.5*fib {
		t.Errorf("structured keys: pow2 ratio %.2f not >> fib ratio %.2f", pow, fib)
	}
	fibMax := cellInt(t, tab.Rows[4][6])
	powMax := cellInt(t, tab.Rows[5][6])
	if powMax < 4*fibMax {
		t.Errorf("structured keys: pow2 max chain %d not >> fib %d", powMax, fibMax)
	}
}

func TestE5LookupResize(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E5LookupResize)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Look-up cost at full size within 5x of the small-cache cost
	// (constant-time claim; generous bound for CI noise).
	small := cellDur(t, tab.Rows[0][3])
	big := cellDur(t, tab.Rows[3][3])
	if big > 5*small+2*time.Microsecond {
		t.Errorf("lookup cost grew from %v to %v — not constant", small, big)
	}
}

func TestE6MemoryEquilibrium(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E6MemoryEquilibrium)
	// Measured equilibrium must not exceed the rate×Lt bound.
	for _, row := range tab.Rows[:2] {
		peak := cellInt(t, row[2])
		bound := cellInt(t, row[3])
		if peak > bound {
			t.Errorf("equilibrium %d exceeded bound %d", peak, bound)
		}
		if peak < bound/2 {
			t.Errorf("equilibrium %d below half the bound %d — eviction too eager", peak, bound)
		}
	}
}

func TestE7Eviction(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E7Eviction)
	frac := tab.Rows[0][3]
	if !strings.HasPrefix(frac, "1.5") && !strings.HasPrefix(frac, "1.6") {
		t.Errorf("windowed fraction = %s, want ~1.56%%", frac)
	}
	if tab.Rows[1][3] != "100.00%" {
		t.Errorf("baseline fraction = %s", tab.Rows[1][3])
	}
}

func TestE8Correction(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E8Correction)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[1][4], "99.9") && !strings.Contains(tab.Rows[1][4], "100.0") {
		t.Errorf("memo hit rate = %s, want ~100%%", tab.Rows[1][4])
	}
}

func TestE9FastResponse(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E9FastResponse)
	hit := cellDur(t, tab.Rows[0][2])
	miss := cellDur(t, tab.Rows[1][2])
	if hit > 100*time.Millisecond {
		t.Errorf("hit mean %v — fast response broken", hit)
	}
	if miss < 200*time.Millisecond {
		t.Errorf("miss mean %v — full delay not imposed", miss)
	}
}

func TestE10RarelyRespond(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E10RarelyRespond)
	if len(tab.Rows) < 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At the lowest replica fraction, rarely-respond must use fewer
	// messages than respond-always.
	rarely := cellInt(t, tab.Rows[0][3])
	always := cellInt(t, tab.Rows[1][3])
	if rarely >= always {
		t.Errorf("rarely-respond sent %d responses vs always %d at 1/16 replicas", rarely, always)
	}
}

func TestE11Prepare(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E11Prepare)
	seq := cellDur(t, tab.Rows[0][2])
	prep := cellDur(t, tab.Rows[1][2])
	if prep >= seq {
		t.Errorf("prepare (%v) not faster than sequential (%v)", prep, seq)
	}
}

func TestE12Rechain(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E12Rechain)
	deferred := cellDur(t, tab.Rows[0][2])
	eager := cellDur(t, tab.Rows[1][2])
	if eager <= deferred {
		t.Errorf("eager re-chaining (%v) not slower than deferred (%v)", eager, deferred)
	}
}

func TestE13Deadline(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E13Deadline)
	if got := tab.Rows[0][3]; got != "1.00" {
		t.Errorf("queries/server = %s, want exactly 1.00", got)
	}
}

func TestE14Registration(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E14Registration)
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d (notes %v)", len(tab.Rows), tab.Notes)
	}
	scallaBytes := cellInt(t, tab.Rows[0][5])
	gfsBytes := cellInt(t, tab.Rows[1][5])
	if gfsBytes < 100*scallaBytes {
		t.Errorf("manifest bytes %d not >> prefix-login bytes %d", gfsBytes, scallaBytes)
	}
}

func TestE15RefreshRecovery(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E15RefreshRecovery)
	parts := strings.Split(tab.Rows[0][1], "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("recovery = %s, want all trials recovered", tab.Rows[0][1])
	}
}

func TestE16Qserv(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E16Qserv)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE17ScaleSweep(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E17ScaleSweep)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Warm latency grows by a constant per 64x servers.
	w1 := cellDur(t, tab.Rows[0][3])
	w2 := cellDur(t, tab.Rows[1][3])
	w4 := cellDur(t, tab.Rows[3][3])
	if w2-w1 <= 0 || w4 != 4*w1 {
		t.Errorf("warm latencies %v %v ... %v not linear in depth", w1, w2, w4)
	}
}

func TestE18FanoutAblation(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E18FanoutAblation)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Depth must fall monotonically with fanout.
	prev := int64(1 << 30)
	for _, row := range tab.Rows {
		d := cellInt(t, row[1])
		if d > prev {
			t.Errorf("depth not monotone: %v", row)
		}
		prev = d
	}
}

func TestE19Throughput(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E19Throughput)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		tx, err := strconv.ParseFloat(strings.TrimSpace(row[3]), 64)
		if err != nil {
			t.Fatalf("tx/s cell %q", row[3])
		}
		if tx < 1000 {
			t.Errorf("%s concurrent jobs: %.0f tx/s — below the paper's thousands/s requirement", row[0], tx)
		}
		// Timing-edge misses (the paper's Section III-C1 scenario) can
		// surface as definitive not-founds under heavy CI contention;
		// allow a sliver, never a systematic failure.
		total := cellInt(t, row[2])
		errs := cellInt(t, row[6])
		if errs*100 > total {
			t.Errorf("errors = %d of %d (>1%%)", errs, total)
		}
	}
}

func TestE20SelectionPolicies(t *testing.T) {
	t.Parallel()
	tab := runQuick(t, E20SelectionPolicies)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	parse3 := func(cell string) (a, b, c int64) {
		if _, err := fmt.Sscanf(cell, "%d/%d/%d", &a, &b, &c); err != nil {
			t.Fatalf("cell %q", cell)
		}
		return
	}
	// ByLoad: everything to srv0 (the idle one).
	if a, b, c := parse3(tab.Rows[0][1]); b != 0 || c != 0 || a == 0 {
		t.Errorf("ByLoad = %s", tab.Rows[0][1])
	}
	// ByFrequency and RoundRobin: even spread.
	for _, i := range []int{1, 2} {
		a, b, c := parse3(tab.Rows[i][1])
		if a != b || b != c {
			t.Errorf("%s = %s, want even", tab.Rows[i][0], tab.Rows[i][1])
		}
	}
	// BySpace: everything to srv1 (the roomiest).
	if a, b, c := parse3(tab.Rows[3][1]); a != 0 || c != 0 || b == 0 {
		t.Errorf("BySpace = %s", tab.Rows[3][1])
	}
}

// TestE22Surge checks the scheduler's overload bounds on the quick-scale
// surge (256 clients over real TCP): the data queue never exceeds
// QueueLimit plus one guarantee slot per client, the scheduler sheds
// rather than queueing without limit, everything drains on close, and
// the surge actually formed. E22Surge reports each broken bound as an
// ErrNote. It runs alone (not parallel) so the other experiments do not
// share its host.
func TestE22Surge(t *testing.T) {
	tab := runQuick(t, E22Surge)
	for _, f := range tab.Failures() {
		t.Errorf("surge: %s", f)
	}
}

// TestE23DepthScaling checks the tree bounds every walk at one redirect
// per redirector level. Like TestE22Surge it runs alone: it keeps both
// CPUs of a small host busy for seconds, which would skew the timing
// ratios the parallel experiments assert.
func TestE23DepthScaling(t *testing.T) {
	tab := runQuick(t, E23DepthScaling)
	for _, f := range tab.Failures() {
		t.Errorf("depth sweep: %s", f)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 shapes (notes: %v)", len(tab.Rows), tab.Notes)
	}
	wantDepth := []int64{3, 4, 4} // 1024@64, 512@16, 1024@16
	for i, r := range tab.Rows {
		depth, hopMax := cellInt(t, r[2]), cellInt(t, r[6])
		if depth != wantDepth[i] {
			t.Errorf("%s@%s: depth %d, want %d", r[0], r[1], depth, wantDepth[i])
		}
		// One redirect per redirector level, never more.
		if hopMax != depth-1 {
			t.Errorf("%s@%s: hop max %d, want depth-1 = %d", r[0], r[1], hopMax, depth-1)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	for _, id := range IDs() {
		if ByID(id) == nil {
			t.Errorf("ByID(%s) = nil", id)
		}
	}
	if ByID("e7") == nil {
		t.Error("ByID must be case-insensitive")
	}
	if ByID("E99") != nil {
		t.Error("unknown id resolved")
	}
}
