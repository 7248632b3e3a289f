// Package experiments implements the reproduction harness: one function
// per experiment in DESIGN.md (E1–E20, E22 and E23), each regenerating a
// table of the corresponding quantitative claim from the paper.
// cmd/scalla-bench prints the tables; the root bench_test.go wraps the
// same functions in testing.B benchmarks. E21 (the edge-proxy data
// lifecycle) is measured end to end by perfbench's edge-replay workload.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"scalla"
)

// Table is one experiment's result, formatted like the paper would
// report it.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper's claim being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// ErrNote prefixes a note that reports a failed run: a bound the run
// broke, or an error that left the table incomplete. scalla-bench exits
// non-zero when any table carries one.
const ErrNote = "error: "

// Failures returns the table's ErrNote notes.
func (t Table) Failures() []string {
	var f []string
	for _, n := range t.Notes {
		if strings.HasPrefix(n, ErrNote) {
			f = append(f, n)
		}
	}
	return f
}

// String renders the table for the terminal.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale selects experiment sizes. Quick keeps everything under a few
// seconds per experiment (used by tests and -short benches); Full uses
// the sizes reported in EXPERIMENTS.md.
type Scale struct {
	Quick bool
}

func (s Scale) pick(quick, full int) int {
	if s.Quick {
		return quick
	}
	return full
}

// quickCluster builds a test-speed cluster.
func quickCluster(servers, fanout int) (*scalla.Cluster, error) {
	return scalla.StartCluster(scalla.Options{
		Servers:    servers,
		Fanout:     fanout,
		FullDelay:  250 * time.Millisecond,
		FastPeriod: 25 * time.Millisecond,
	})
}

// fmtDur renders a duration in µs with 3 significant decimals.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
}

// percentileOf returns the p-quantile of raw samples.
func percentileOf(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p * float64(len(s)-1))
	return s[idx]
}

func meanOf(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	return sum / time.Duration(len(samples))
}

// All runs every experiment at the given scale, in order.
func All(s Scale) []Table {
	return []Table{
		E1TreeLatency(s),
		E2UncachedLookup(s),
		E3LoadSlope(s),
		E4FibVsPow2(s),
		E5LookupResize(s),
		E6MemoryEquilibrium(s),
		E7Eviction(s),
		E8Correction(s),
		E9FastResponse(s),
		E10RarelyRespond(s),
		E11Prepare(s),
		E12Rechain(s),
		E13Deadline(s),
		E14Registration(s),
		E15RefreshRecovery(s),
		E16Qserv(s),
		E17ScaleSweep(s),
		E18FanoutAblation(s),
		E19Throughput(s),
		E20SelectionPolicies(s),
		E22Surge(s),
		E23DepthScaling(s),
	}
}

// ByID returns the experiment runner for an id like "E7", or nil.
func ByID(id string) func(Scale) Table {
	m := map[string]func(Scale) Table{
		"E1": E1TreeLatency, "E2": E2UncachedLookup, "E3": E3LoadSlope,
		"E4": E4FibVsPow2, "E5": E5LookupResize, "E6": E6MemoryEquilibrium,
		"E7": E7Eviction, "E8": E8Correction, "E9": E9FastResponse,
		"E10": E10RarelyRespond, "E11": E11Prepare, "E12": E12Rechain,
		"E13": E13Deadline, "E14": E14Registration, "E15": E15RefreshRecovery,
		"E16": E16Qserv, "E17": E17ScaleSweep, "E18": E18FanoutAblation,
		"E19": E19Throughput, "E20": E20SelectionPolicies,
		"E22": E22Surge, "E23": E23DepthScaling,
	}
	return m[strings.ToUpper(id)]
}

// IDs lists the experiment ids in order.
func IDs() []string {
	return []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E22", "E23"}
}

// Describe returns a one-line description of an experiment.
func Describe(id string) string {
	m := map[string]string{
		"E1":  "cached resolution latency vs tree depth (II-B5)",
		"E2":  "first-access vs cached resolution (II-B5)",
		"E3":  "redirection latency vs offered load (II-B5)",
		"E4":  "Fibonacci vs power-of-two hash dispersion (III-A1 fn.4)",
		"E5":  "lookup cost and resize count while filling (III-A1)",
		"E6":  "cache equilibrium = rate x lifetime; memory bound (III-A2)",
		"E7":  "sliding-window eviction vs full scan (III-A3)",
		"E8":  "O(1) lazy correction with Vwc memoization (III-A4)",
		"E9":  "fast response queue: hits vs misses (III-B)",
		"E10": "request-rarely-respond vs respond-always (III-B)",
		"E11": "prepare hides bulk full delays (III-B2)",
		"E12": "deferred vs eager re-chaining (III-C1)",
		"E13": "deadline-based query synchronization (III-C2)",
		"E14": "prefix login vs GFS-style manifest registration (V)",
		"E15": "client recovery via cache refresh (III-C1)",
		"E16": "Qserv dispatch scaling over Scalla (IV-B)",
		"E17": "modeled O(log64 N) scaling to 16.7M servers (II-B1, VI)",
		"E18": "fanout ablation: why 64 (II-B1 fn.2)",
		"E19": "BaBar-style metadata workload throughput (II-A)",
		"E20": "replica selection policies: load/frequency/space/round-robin (II-B3)",
		"E22": "overload protection: control lane and victim under a 10k-client TCP surge (II-B5)",
		"E23": "resolve cost vs tree depth and width, depth 3 to 5 (II-B1, III)",
	}
	return m[strings.ToUpper(id)]
}
