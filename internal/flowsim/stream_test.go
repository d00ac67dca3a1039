package flowsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// RunStream must match the seed reference core on any workload it can
// express (arrival-sorted specs, capacity-only events): byte-identical
// ConnResults. These tests pin that, plus the stream-only machinery —
// slot recycling, arena compaction, the nondecreasing-arrival contract,
// and the unsupported-feature error.

// streamScenario builds a seeded capacity-churn workload with specs
// pre-sorted by arrival, the one ordering constraint RunStream adds.
func streamScenario(seed int64, withEvents bool) diffScenario {
	rng := rand.New(rand.NewSource(seed))
	nLinks := 8 + rng.Intn(24)
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = 1 + 9*rng.Float64()
	}
	nConns := 3 + rng.Intn(28)
	specs := make([]ConnSpec, nConns)
	horizon := 0.0
	if rng.Intn(2) == 0 {
		horizon = 6
	}
	for i := range specs {
		bits := 0.5 + 20*rng.Float64()
		if horizon > 0 && rng.Intn(10) == 0 {
			bits = math.Inf(1)
		}
		w := 0.0
		if rng.Intn(3) == 0 {
			w = 0.25 + 1.75*rng.Float64()
		}
		specs[i] = ConnSpec{
			Paths:   randomPaths(rng, nLinks),
			Bits:    bits,
			Arrival: 3 * rng.Float64(),
			Weight:  w,
		}
	}
	sort.SliceStable(specs, func(a, b int) bool { return specs[a].Arrival < specs[b].Arrival })
	sc := diffScenario{caps: caps, specs: specs, horizon: horizon}
	if !withEvents {
		sc.graceful = rng.Intn(2) == 0
		return sc
	}
	// Capacity churn only: fail links mid-run, repair some later. Links
	// left at zero exercise the stall/disconnect path.
	nEvents := 1 + rng.Intn(4)
	for e := 0; e < nEvents; e++ {
		down := map[int]float64{}
		for k := 0; k < 1+rng.Intn(3); k++ {
			down[rng.Intn(nLinks)] = 0
		}
		at := 0.5 + 4*rng.Float64()
		sc.events = append(sc.events, TopoEvent{Time: at, SetCaps: down})
		if rng.Intn(2) == 0 {
			up := map[int]float64{}
			for l := range down {
				up[l] = 1 + 9*rng.Float64()
			}
			sc.events = append(sc.events, TopoEvent{Time: at + 0.5 + 2*rng.Float64(), SetCaps: up})
		}
	}
	return sc
}

// runStreamed drives RunStream over the scenario's specs and reassembles
// a Run-shaped result slice from the sink callbacks.
func runStreamed(t *testing.T, seed int64, sc diffScenario) ([]ConnResult, error) {
	t.Helper()
	got := make([]ConnResult, len(sc.specs))
	seen := make([]bool, len(sc.specs))
	i := 0
	err := sc.sim().RunStream(
		func() (ConnSpec, bool) {
			if i >= len(sc.specs) {
				return ConnSpec{}, false
			}
			sp := sc.specs[i]
			i++
			return sp, true
		},
		func(id int, res ConnResult) {
			if id < 0 || id >= len(seen) || seen[id] {
				t.Fatalf("seed %d: sink saw id %d (dup or out of range)", seed, id)
			}
			seen[id] = true
			got[id] = res
		})
	if err != nil {
		return nil, err
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("seed %d: connection %d never reached the sink", seed, id)
		}
	}
	return got, nil
}

func TestRunStreamDifferentialStatic(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		sc := streamScenario(seed, false)
		want, wantErr := sc.sim().runReference()
		got, gotErr := runStreamed(t, seed, sc)
		requireIdentical(t, seed, got, want, gotErr, wantErr)
	}
}

func TestRunStreamDifferentialCapacityChurn(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		sc := streamScenario(seed, true)
		want, wantErr := sc.sim().runReference()
		got, gotErr := runStreamed(t, seed, sc)
		requireIdentical(t, seed, got, want, gotErr, wantErr)
	}
}

// TestRunStreamSlotRecycling runs 20k short-lived flows through a tiny
// fabric so slots recycle thousands of times (the offered load keeps a
// handful of flows concurrent); results must still match the reference
// core exactly.
func TestRunStreamSlotRecycling(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nLinks := 16
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = 5 + 5*rng.Float64()
	}
	const n = 20_000
	specs := make([]ConnSpec, n)
	for i := range specs {
		specs[i] = ConnSpec{
			Paths:   randomPaths(rng, nLinks),
			Bits:    0.005 + 0.015*rng.Float64(),
			Arrival: float64(i) * 5e-4,
		}
	}
	sc := diffScenario{caps: caps, specs: specs}
	want, wantErr := sc.sim().runReference()
	got, gotErr := runStreamed(t, 99, sc)
	requireIdentical(t, 99, got, want, gotErr, wantErr)
}

// TestCompactPreservesAllocation drives the arena compactor directly:
// admit a churned population, retire every other connection, compact,
// and require the post-compaction allocation to match a fresh core
// admitted with only the survivors, bit for bit. (Organic runs rarely
// compact — slot range reuse ratchets capacities until waste stops
// accruing — so the rebuild is pinned white-box.)
func TestCompactPreservesAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nLinks := 24
	caps := make([]float64, nLinks)
	for l := range caps {
		caps[l] = 1 + 9*rng.Float64()
	}
	const n = 400
	paths := make([][][]int, n)
	weights := make([]float64, n)
	st := newAllocState(caps, n)
	for i := 0; i < n; i++ {
		paths[i] = randomPaths(rng, nLinks)
		weights[i] = 0.25 + 1.75*rng.Float64()
		if err := st.admit(i, i, weights[i], paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	var ids []int
	var slots []int32
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			st.retire(i, i)
			continue
		}
		ids = append(ids, i)
		slots = append(slots, int32(i))
	}
	st.compact(ids, slots)
	st.allocate(slots)

	fresh := newAllocState(append([]float64(nil), caps...), n)
	for _, i := range ids {
		if err := fresh.admit(i, i, weights[i], paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	fresh.allocate(slots)
	for _, i := range ids {
		got := st.rate(i, 10)
		want := fresh.rate(i, 10)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("connection %d: compacted rate %.17g, fresh %.17g", i, got, want)
		}
	}
}

func TestRunStreamRejectsUnsupported(t *testing.T) {
	s := NewSim([]float64{10}, nil)
	s.Schedule([]TopoEvent{{Time: 1, Reroute: map[int][][]int{0: {{0}}}}})
	err := s.RunStream(func() (ConnSpec, bool) { return ConnSpec{}, false }, func(int, ConnResult) {})
	if err == nil {
		t.Fatal("Reroute event accepted")
	}
}

func TestRunStreamRejectsUnsortedArrivals(t *testing.T) {
	specs := []ConnSpec{
		{Paths: [][]int{{0}}, Bits: 1, Arrival: 2},
		{Paths: [][]int{{0}}, Bits: 1, Arrival: 1},
	}
	i := 0
	err := NewSim([]float64{10}, nil).RunStream(
		func() (ConnSpec, bool) {
			if i >= len(specs) {
				return ConnSpec{}, false
			}
			sp := specs[i]
			i++
			return sp, true
		},
		func(int, ConnResult) {})
	if err == nil {
		t.Fatal("out-of-order arrivals accepted")
	}
}

func TestRunStreamEmpty(t *testing.T) {
	err := NewSim([]float64{10}, nil).RunStream(
		func() (ConnSpec, bool) { return ConnSpec{}, false },
		func(int, ConnResult) { t.Fatal("sink called on empty stream") })
	if err != nil {
		t.Fatal(err)
	}
}
