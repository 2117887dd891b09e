package sched

import (
	"testing"

	"xeonomp/internal/cpu"
	"xeonomp/internal/machine"
	"xeonomp/internal/mem"
	"xeonomp/internal/trace"
)

func params() trace.Params {
	return trace.Params{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.1,
		HotFrac: 1.0, HotBytes: 2048,
		LoopLen: 20, ChunkInstr: 1000, MLP: 0.5,
	}
}

func mkThreads(t *testing.T, program, n int, asid uint64) []*cpu.Thread {
	t.Helper()
	l, err := mem.NewLayout(asid, n, 4096, 1<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	team := cpu.NewTeam(n)
	var out []*cpu.Thread
	for tid := 0; tid < n; tid++ {
		g, err := trace.NewGenerator(params(), l, tid, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cpu.NewThread("t", program, g, team))
	}
	return out
}

func contexts(t *testing.T, n int) []*cpu.Context {
	t.Helper()
	m, err := machine.New(machine.PaxvilleSMP())
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAll()
	return m.Contexts()[:n]
}

func TestPlaceSingleProgramOnePerContext(t *testing.T) {
	ctxs := contexts(t, 4)
	prog := mkThreads(t, 0, 4, 1)
	if err := Place([][]*cpu.Thread{prog}, ctxs, Alternate); err != nil {
		t.Fatal(err)
	}
	for i, x := range ctxs {
		if x.QueueLen() != 1 {
			t.Fatalf("context %d has %d threads", i, x.QueueLen())
		}
	}
}

func TestAlternateInterleavesPrograms(t *testing.T) {
	ctxs := contexts(t, 4)
	p0 := mkThreads(t, 0, 2, 1)
	p1 := mkThreads(t, 1, 2, 2)
	if err := Place([][]*cpu.Thread{p0, p1}, ctxs, Alternate); err != nil {
		t.Fatal(err)
	}
	// Expect p0 t0, p1 t0, p0 t1, p1 t1 across the enumeration.
	want := []int{0, 1, 0, 1}
	for i, x := range ctxs {
		if got := x.Threads()[0].Program; got != want[i] {
			t.Fatalf("context %d got program %d, want %d", i, got, want[i])
		}
	}
}

func TestBlockKeepsProgramsContiguous(t *testing.T) {
	ctxs := contexts(t, 4)
	p0 := mkThreads(t, 0, 2, 1)
	p1 := mkThreads(t, 1, 2, 2)
	if err := Place([][]*cpu.Thread{p0, p1}, ctxs, Block); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 1}
	for i, x := range ctxs {
		if got := x.Threads()[0].Program; got != want[i] {
			t.Fatalf("context %d got program %d, want %d", i, got, want[i])
		}
	}
}

func TestOversubscriptionWrapsRoundRobin(t *testing.T) {
	ctxs := contexts(t, 1)
	p0 := mkThreads(t, 0, 1, 1)
	p1 := mkThreads(t, 1, 1, 2)
	if err := Place([][]*cpu.Thread{p0, p1}, ctxs, Alternate); err != nil {
		t.Fatal(err)
	}
	if ctxs[0].QueueLen() != 2 {
		t.Fatalf("context queue = %d, want 2 (time-sliced)", ctxs[0].QueueLen())
	}
}

func TestUnevenProgramsInterleaveSafely(t *testing.T) {
	ctxs := contexts(t, 5)
	p0 := mkThreads(t, 0, 3, 1)
	p1 := mkThreads(t, 1, 2, 2)
	if err := Place([][]*cpu.Thread{p0, p1}, ctxs, Alternate); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, x := range ctxs {
		total += x.QueueLen()
	}
	if total != 5 {
		t.Fatalf("placed %d threads, want 5", total)
	}
}

func TestPlaceErrors(t *testing.T) {
	if err := Place(nil, nil, Alternate); err == nil {
		t.Error("no contexts accepted")
	}
	ctxs := contexts(t, 2)
	if err := Place(nil, ctxs, Alternate); err == nil {
		t.Error("no threads accepted")
	}
	if err := Place([][]*cpu.Thread{mkThreads(t, 0, 1, 1)}, ctxs, Policy(99)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestOccupancy(t *testing.T) {
	ctxs := contexts(t, 3)
	p0 := mkThreads(t, 0, 4, 1)
	if err := Place([][]*cpu.Thread{p0}, ctxs, Alternate); err != nil {
		t.Fatal(err)
	}
	occ := Occupancy(ctxs)
	if occ[0] != 2 || occ[1] != 1 || occ[2] != 1 {
		t.Fatalf("occupancy = %v", occ)
	}
}

func TestPolicyString(t *testing.T) {
	for _, p := range []Policy{Alternate, Block, RoundRobin} {
		if p.String() == "" {
			t.Error("empty policy name")
		}
	}
	if Policy(42).String() == "" {
		t.Error("unknown policy name empty")
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, name := range []string{"alternate", "block", "round-robin", "symbiotic"} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%s): %v", name, err)
		}
		if back := p.String(); back != name {
			t.Errorf("policy %s round-trips to %s", name, back)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p != Alternate {
		t.Errorf("empty policy parsed to (%v, %v), want the alternate default", p, err)
	}
	for _, name := range []string{"no-such-policy", Policy(42).String()} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("policy name %q accepted", name)
		}
	}
}

func TestPlaceSymbioticPairsHeavyWithLight(t *testing.T) {
	ctxs := contexts(t, 8)
	// Four programs, two threads each; program demands: 0 heavy, 1 light,
	// 2 medium, 3 lightest.
	progs := [][]*cpu.Thread{
		mkThreads(t, 0, 2, 1),
		mkThreads(t, 1, 2, 2),
		mkThreads(t, 2, 2, 3),
		mkThreads(t, 3, 2, 4),
	}
	demands := []ProgramDemand{
		{Bandwidth: 2e9, CacheFootprint: 512 << 10},
		{Bandwidth: 0.2e9, CacheFootprint: 64 << 10},
		{Bandwidth: 1e9, CacheFootprint: 256 << 10},
		{Bandwidth: 0.1e9, CacheFootprint: 32 << 10},
	}
	if err := PlaceSymbiotic(progs, demands, ctxs); err != nil {
		t.Fatal(err)
	}
	// Adjacent contexts are HT siblings: sibling pairs must combine a
	// heavy program (0 or 2) with a light one (1 or 3).
	heavy := map[int]bool{0: true, 2: true}
	for i := 0; i < 8; i += 2 {
		a := ctxs[i].Threads()[0].Program
		b := ctxs[i+1].Threads()[0].Program
		if heavy[a] == heavy[b] {
			t.Fatalf("siblings %d/%d run programs %d and %d (both heavy=%v)", i, i+1, a, b, heavy[a])
		}
	}
}

func TestPlaceSymbioticErrors(t *testing.T) {
	ctxs := contexts(t, 2)
	progs := [][]*cpu.Thread{mkThreads(t, 0, 1, 1)}
	if err := PlaceSymbiotic(progs, nil, ctxs); err == nil {
		t.Error("mismatched demands accepted")
	}
	if err := PlaceSymbiotic(progs, []ProgramDemand{{}}, nil); err == nil {
		t.Error("no contexts accepted")
	}
	if err := PlaceSymbiotic(nil, nil, ctxs); err == nil {
		t.Error("no threads accepted")
	}
}

func TestDemandScoreOrdering(t *testing.T) {
	heavy := ProgramDemand{Bandwidth: 2e9, CacheFootprint: 1 << 20}
	light := ProgramDemand{Bandwidth: 1e8, CacheFootprint: 16 << 10}
	if heavy.score() <= light.score() {
		t.Fatal("demand score ordering wrong")
	}
}
