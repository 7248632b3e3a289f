package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scalla/internal/vclock"
)

func TestTracerDisabledByDefault(t *testing.T) {
	tr := NewTracer(8, nil)
	if tr.Enabled() {
		t.Fatal("new tracer should start disabled")
	}
	sp := tr.Start("resolve", "/a")
	if sp != nil {
		t.Fatal("disabled tracer should return a nil span")
	}
	// Every Span method must tolerate the nil receiver.
	sp.Event("cache.hit", "")
	sp.End("redirect")
	if got := tr.Total(); got != 0 {
		t.Fatalf("disabled tracer recorded %d spans", got)
	}
}

func TestNilTracerAndNilSpanSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.SetEnabled(true) // must not panic
	sp := tr.Start("resolve", "/a")
	sp.Event("x", "y")
	sp.End("done")
	if tr.Total() != 0 || tr.Spans(0) != nil {
		t.Fatal("nil tracer should have no spans")
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	clk := vclock.NewFake()
	tr := NewTracer(8, clk)
	tr.SetEnabled(true)

	sp := tr.Start("resolve", "/store/f")
	clk.Advance(3 * time.Millisecond)
	sp.Event("cache.miss", "")
	clk.Advance(7 * time.Millisecond)
	sp.End("redirect srv1:3094")

	spans := tr.Spans(0)
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	rec := spans[0]
	if rec.Op != "resolve" || rec.Path != "/store/f" {
		t.Fatalf("bad span identity: %+v", rec)
	}
	if rec.Dur != 10*time.Millisecond {
		t.Fatalf("dur = %v, want 10ms", rec.Dur)
	}
	if rec.Outcome != "redirect srv1:3094" {
		t.Fatalf("outcome = %q", rec.Outcome)
	}
	if len(rec.Events) != 1 || rec.Events[0].Kind != "cache.miss" || rec.Events[0].At != 3*time.Millisecond {
		t.Fatalf("bad events: %+v", rec.Events)
	}
}

func TestTracerEndIdempotent(t *testing.T) {
	tr := NewTracer(8, nil)
	tr.SetEnabled(true)
	sp := tr.Start("have", "/f")
	sp.End("first")
	sp.End("second")
	if got := tr.Total(); got != 1 {
		t.Fatalf("double End recorded %d spans, want 1", got)
	}
	if out := tr.Spans(0)[0].Outcome; out != "first" {
		t.Fatalf("outcome = %q, want the first End's", out)
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4, nil)
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Start("op", fmt.Sprintf("/p%d", i)).End("ok")
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("total = %d, want 10", got)
	}
	spans := tr.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	// Most recent first: /p9 /p8 /p7 /p6.
	for i, want := range []string{"/p9", "/p8", "/p7", "/p6"} {
		if spans[i].Path != want {
			t.Fatalf("spans[%d].Path = %q, want %q", i, spans[i].Path, want)
		}
	}
	// A max smaller than the ring returns only the newest.
	if two := tr.Spans(2); len(two) != 2 || two[0].Path != "/p9" || two[1].Path != "/p8" {
		t.Fatalf("Spans(2) = %+v", two)
	}
}

func TestTracerSpanStartedBeforeDisableStillRecords(t *testing.T) {
	tr := NewTracer(4, nil)
	tr.SetEnabled(true)
	sp := tr.Start("resolve", "/f")
	tr.SetEnabled(false)
	sp.End("ok")
	if tr.Total() != 1 {
		t.Fatal("span started while enabled should record after disable")
	}
	if tr.Start("resolve", "/g") != nil {
		t.Fatal("new spans must be nil after disable")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64, nil)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("op", fmt.Sprintf("/g%d/%d", g, i))
				sp.Event("step", "")
				sp.End("ok")
				tr.Spans(4)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Total(); got != 8*200 {
		t.Fatalf("total = %d, want %d", got, 8*200)
	}
	ids := map[uint64]bool{}
	for _, s := range tr.Spans(0) {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
}

// BenchmarkSpan measures one traced resolve with tracing on: start a
// span, record one event, end it into the ring.
func BenchmarkSpan(b *testing.B) {
	tr := NewTracer(512, nil)
	tr.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("resolve", "/store/bench.root")
		sp.Event("cache.hit", "")
		sp.End("redirect srv0:data")
	}
}
