package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"scalla/internal/bitvec"
	"scalla/internal/names"
	"scalla/internal/proto"
	"scalla/internal/vclock"
)

func member(name string, prefixes ...string) Member {
	return Member{
		Name: name, Role: proto.RoleServer,
		DataAddr: name + ":1094", CtlAddr: name + ":1213",
		Prefixes: names.NewPrefixSet(prefixes...),
	}
}

func TestLoginAssignsDistinctIndices(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		idx, isNew, err := tb.Login(member(fmt.Sprintf("n%d", i), "/store"))
		if err != nil || !isNew {
			t.Fatalf("login %d: idx=%d new=%v err=%v", i, idx, isNew, err)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	if _, _, err := tb.Login(member("overflow", "/store")); err != ErrFull {
		t.Fatalf("65th login: %v, want ErrFull", err)
	}
	if tb.Count() != 64 {
		t.Errorf("Count = %d", tb.Count())
	}
}

func TestNewServerCallback(t *testing.T) {
	var mu sync.Mutex
	var events []int
	tb := New(Config{
		Clock:       vclock.NewFake(),
		OnNewServer: func(i int) { mu.Lock(); events = append(events, i); mu.Unlock() },
	})
	idx, _, _ := tb.Login(member("a", "/store"))
	mu.Lock()
	n := len(events)
	mu.Unlock()
	if n != 1 || events[0] != idx {
		t.Fatalf("events = %v", events)
	}
	// Same-exports reconnect: NOT a new server.
	_, isNew, _ := tb.Login(member("a", "/store"))
	if isNew {
		t.Error("same-export reconnect flagged as new")
	}
	mu.Lock()
	n = len(events)
	mu.Unlock()
	if n != 1 {
		t.Errorf("reconnect fired OnNewServer: %v", events)
	}
	// Changed exports: new server, same slot.
	idx2, isNew, _ := tb.Login(member("a", "/data"))
	if !isNew || idx2 != idx {
		t.Errorf("changed-export reconnect: idx=%d new=%v", idx2, isNew)
	}
	mu.Lock()
	n = len(events)
	mu.Unlock()
	if n != 2 {
		t.Errorf("changed-export reconnect must fire OnNewServer")
	}
}

func TestDisconnectKeepsSlotUntilDropDelay(t *testing.T) {
	fc := vclock.NewFake()
	var dropped []int
	var mu sync.Mutex
	tb := New(Config{
		DropDelay: 10 * time.Minute,
		Clock:     fc,
		OnDrop:    func(i int) { mu.Lock(); dropped = append(dropped, i); mu.Unlock() },
	})
	idx, _, _ := tb.Login(member("a", "/store"))
	tb.Disconnect(idx)

	if !tb.OfflineVec().Has(idx) {
		t.Fatal("member not in OfflineVec after disconnect")
	}
	if tb.OnlineVec().Has(idx) {
		t.Fatal("member still in OnlineVec")
	}
	// Still part of Vm while offline (cached locations stay valid).
	if !tb.VmFor("/store/x").Has(idx) {
		t.Fatal("offline member lost from Vm before drop")
	}

	fc.BlockUntil(1)
	fc.Advance(10 * time.Minute)
	waitUntil(t, func() bool { return tb.Count() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(dropped) != 1 || dropped[0] != idx {
		t.Errorf("dropped = %v", dropped)
	}
	if tb.VmFor("/store/x").Has(idx) {
		t.Error("dropped member still in Vm")
	}
}

func TestReconnectCancelsDrop(t *testing.T) {
	fc := vclock.NewFake()
	tb := New(Config{DropDelay: 10 * time.Minute, Clock: fc})
	idx, _, _ := tb.Login(member("a", "/store"))
	tb.Disconnect(idx)
	fc.BlockUntil(1)
	fc.Advance(5 * time.Minute)
	_, isNew, _ := tb.Login(member("a", "/store"))
	if isNew {
		t.Fatal("in-window reconnect treated as new")
	}
	fc.Advance(10 * time.Minute)
	time.Sleep(10 * time.Millisecond) // allow a (wrong) drop to happen
	if tb.Count() != 1 {
		t.Fatal("reconnected member was dropped by the stale timer")
	}
	if !tb.OnlineVec().Has(idx) {
		t.Error("member not online after reconnect")
	}
}

func TestPostDropReconnectIsNewServer(t *testing.T) {
	fc := vclock.NewFake()
	tb := New(Config{DropDelay: time.Minute, Clock: fc})
	idx, _, _ := tb.Login(member("a", "/store"))
	tb.Disconnect(idx)
	fc.BlockUntil(1)
	fc.Advance(time.Minute)
	waitUntil(t, func() bool { return tb.Count() == 0 })
	_, isNew, err := tb.Login(member("a", "/store"))
	if err != nil || !isNew {
		t.Errorf("post-drop reconnect: new=%v err=%v", isNew, err)
	}
}

func TestVmForMatchesPrefixes(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	i1, _, _ := tb.Login(member("a", "/store"))
	i2, _, _ := tb.Login(member("b", "/store", "/data"))
	i3, _, _ := tb.Login(member("c", "/data"))

	if got := tb.VmFor("/store/f"); got != bitvec.Of(i1, i2) {
		t.Errorf("VmFor(/store/f) = %v", got)
	}
	if got := tb.VmFor("/data/f"); got != bitvec.Of(i2, i3) {
		t.Errorf("VmFor(/data/f) = %v", got)
	}
	if got := tb.VmFor("/other/f"); !got.IsEmpty() {
		t.Errorf("VmFor(/other/f) = %v", got)
	}
}

func TestSelectByLoad(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	i1, _, _ := tb.Login(member("a", "/store"))
	i2, _, _ := tb.Login(member("b", "/store"))
	tb.UpdateStats(i1, 90, 100)
	tb.UpdateStats(i2, 10, 100)
	idx, ok := tb.Select(bitvec.Of(i1, i2), ByLoad)
	if !ok || idx != i2 {
		t.Errorf("Select = %d, want least-loaded %d", idx, i2)
	}
	m, _ := tb.Member(i2)
	if m.Selected != 1 {
		t.Error("selection count not incremented")
	}
}

func TestSelectBySpace(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	i1, _, _ := tb.Login(member("a", "/store"))
	i2, _, _ := tb.Login(member("b", "/store"))
	tb.UpdateStats(i1, 0, 1000)
	tb.UpdateStats(i2, 0, 10)
	if idx, ok := tb.Select(bitvec.Of(i1, i2), BySpace); !ok || idx != i1 {
		t.Errorf("Select = %d, want roomiest %d", idx, i1)
	}
}

func TestSelectByFrequencySpreads(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	i1, _, _ := tb.Login(member("a", "/store"))
	i2, _, _ := tb.Login(member("b", "/store"))
	counts := map[int]int{}
	for k := 0; k < 10; k++ {
		idx, _ := tb.Select(bitvec.Of(i1, i2), ByFrequency)
		counts[idx]++
	}
	if counts[i1] != 5 || counts[i2] != 5 {
		t.Errorf("ByFrequency spread = %v", counts)
	}
}

func TestSelectRoundRobin(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	var idxs []int
	for i := 0; i < 3; i++ {
		idx, _, _ := tb.Login(member(fmt.Sprintf("n%d", i), "/store"))
		idxs = append(idxs, idx)
	}
	cand := bitvec.Of(idxs...)
	seen := map[int]int{}
	for k := 0; k < 9; k++ {
		idx, ok := tb.Select(cand, RoundRobin)
		if !ok {
			t.Fatal("no selection")
		}
		seen[idx]++
	}
	for _, i := range idxs {
		if seen[i] != 3 {
			t.Errorf("round robin uneven: %v", seen)
		}
	}
}

func TestSelectSkipsOffline(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	i1, _, _ := tb.Login(member("a", "/store"))
	i2, _, _ := tb.Login(member("b", "/store"))
	tb.Disconnect(i1)
	for k := 0; k < 5; k++ {
		if idx, ok := tb.Select(bitvec.Of(i1, i2), ByLoad); !ok || idx != i2 {
			t.Fatalf("Select = %d, want online %d", idx, i2)
		}
	}
	tb.Disconnect(i2)
	if _, ok := tb.Select(bitvec.Of(i1, i2), ByLoad); ok {
		t.Error("selected among all-offline candidates")
	}
}

func TestMemberSnapshotAndString(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	idx, _, _ := tb.Login(member("alpha", "/store"))
	m, ok := tb.Member(idx)
	if !ok || m.Name != "alpha" || m.DataAddr != "alpha:1094" || !m.Online {
		t.Errorf("Member = %+v", m)
	}
	if _, ok := tb.Member(63); ok {
		t.Error("empty slot reported as member")
	}
	if _, ok := tb.Member(-1); ok {
		t.Error("negative index accepted")
	}
	if s := tb.String(); len(s) == 0 {
		t.Error("String empty")
	}
}

func TestDropNow(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	idx, _, _ := tb.Login(member("a", "/store"))
	tb.DropNow(idx)
	if tb.Count() != 0 {
		t.Error("DropNow did not remove the member")
	}
	tb.DropNow(idx) // idempotent
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never true")
		}
		time.Sleep(time.Millisecond)
	}
}

func supMember(name string) Member {
	m := member(name, "/store")
	m.Role = proto.RoleSupervisor
	return m
}

// TestCapacityCapsLogins verifies that a narrower-than-64 cell fills at
// its configured Capacity, the lever StartCluster uses to make overflow
// reachable at any planned fanout.
func TestCapacityCapsLogins(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake(), Capacity: 2})
	for i := 0; i < 2; i++ {
		if _, _, err := tb.Login(member(fmt.Sprintf("n%d", i), "/store")); err != nil {
			t.Fatalf("login %d: %v", i, err)
		}
	}
	if _, _, err := tb.Login(member("n2", "/store")); err != ErrFull {
		t.Fatalf("login past capacity: %v, want ErrFull", err)
	}
	// A known name still re-logs in fine at capacity.
	if _, isNew, err := tb.Login(member("n1", "/store")); err != nil || isNew {
		t.Fatalf("re-login at capacity: new=%v err=%v", isNew, err)
	}
	// Out-of-range or over-capacity Capacity values clamp to MaxMembers.
	tb2 := New(Config{Clock: vclock.NewFake(), Capacity: MaxMembers + 7})
	for i := 0; i < MaxMembers; i++ {
		if _, _, err := tb2.Login(member(fmt.Sprintf("m%d", i), "/store")); err != nil {
			t.Fatalf("login %d under clamped capacity: %v", i, err)
		}
	}
	if _, _, err := tb2.Login(member("m-extra", "/store")); err != ErrFull {
		t.Fatalf("login past MaxMembers: %v, want ErrFull", err)
	}
}

// TestOverflowTarget covers the cell-overflow picker: a full cell with
// supervisor children round-robins overflow logins across the online
// ones; a leaf cell (servers only) has no target and must reject.
func TestOverflowTarget(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake(), Capacity: 4})
	supIdx := map[string]int{}
	for _, n := range []string{"supA", "supB"} {
		idx, _, err := tb.Login(supMember(n))
		if err != nil {
			t.Fatal(err)
		}
		supIdx[n] = idx
	}
	for _, n := range []string{"srvA", "srvB"} {
		if _, _, err := tb.Login(member(n, "/store")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := tb.Login(member("srvC", "/store")); err != ErrFull {
		t.Fatalf("want full cell before overflow, got %v", err)
	}
	// Successive picks alternate between the two supervisors.
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		addr, ok := tb.OverflowTarget()
		if !ok {
			t.Fatal("no overflow target in a cell with supervisors")
		}
		seen[addr]++
	}
	if seen["supA:1213"] != 2 || seen["supB:1213"] != 2 {
		t.Errorf("overflow picks not spread round-robin: %v", seen)
	}
	// An offline supervisor is skipped.
	tb.DisconnectManual(supIdx["supA"])
	for i := 0; i < 2; i++ {
		if addr, ok := tb.OverflowTarget(); !ok || addr != "supB:1213" {
			t.Errorf("pick %d with supA offline: %q ok=%v, want supB:1213", i, addr, ok)
		}
	}
	// A leaf cell has no target at all.
	leaf := New(Config{Clock: vclock.NewFake(), Capacity: 1})
	if _, _, err := leaf.Login(member("srvX", "/store")); err != nil {
		t.Fatal(err)
	}
	if addr, ok := leaf.OverflowTarget(); ok {
		t.Errorf("leaf cell produced overflow target %q", addr)
	}
}

// TestSlotReuseUnderDropRace races a member's re-login against the
// armed MaybeDrop from its disconnect, across every slot of a full
// table. Whichever side wins, the member must end the round registered
// and online: a re-login before the drop bumps the connection
// generation and voids the drop; a drop before the re-login just makes
// the login a fresh one. Run with -race.
func TestSlotReuseUnderDropRace(t *testing.T) {
	tb := New(Config{Clock: vclock.NewFake()})
	for i := 0; i < MaxMembers; i++ {
		if _, _, err := tb.Login(member(fmt.Sprintf("n%d", i), "/store")); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 8; round++ {
		var wg sync.WaitGroup
		for i := 0; i < MaxMembers; i++ {
			// A re-login that loses to the drop takes the lowest free
			// slot, so members move between slots; race the one in
			// slot i now.
			m, ok := tb.Member(i)
			if !ok {
				t.Fatalf("round %d: slot %d empty", round, i)
			}
			gen, ok := tb.DisconnectManual(i)
			if !ok {
				t.Fatalf("round %d: member %d not online", round, i)
			}
			wg.Add(2)
			name := m.Name
			go func() {
				defer wg.Done()
				tb.MaybeDrop(i, gen)
			}()
			go func() {
				defer wg.Done()
				if _, _, err := tb.Login(member(name, "/store")); err != nil {
					t.Errorf("round %d: re-login %s: %v", round, name, err)
				}
			}()
		}
		wg.Wait()
		sum := tb.Summary()
		if sum.Members != MaxMembers || sum.Online != MaxMembers {
			t.Fatalf("round %d: %+v, want %d online members", round, sum, MaxMembers)
		}
	}
}
