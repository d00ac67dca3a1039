package flowsim

import (
	"fmt"
	"math"
	"sort"

	"flattree/internal/recorder"
)

// ConnSpec describes one connection entering the simulation.
type ConnSpec struct {
	// Paths are the connection's subflow paths as link-ID lists. MPTCP
	// connections pass k paths; TCP passes one. An empty path list is
	// rejected unless the simulation runs gracefully (see Sim.Graceful),
	// where it marks a connection with no surviving route: it stalls on
	// arrival instead of transmitting.
	Paths [][]int
	// Bits is the transfer size; math.Inf(1) makes the connection
	// persistent (it never completes — iPerf-style).
	Bits float64
	// Arrival is the connection start time in seconds.
	Arrival float64
	// Weight is the connection's total fairness weight, split evenly
	// across subflows; zero defaults to 1.
	Weight float64
}

// ConnResult reports one connection's outcome.
type ConnResult struct {
	// Start and Finish bound the transfer; Finish is +Inf for persistent
	// connections and connections that never complete.
	Start, Finish float64
	// Bits echoes the transfer size.
	Bits float64
	// StallTime is the total time the connection spent with no usable
	// path (zero rate on every subflow) under graceful degradation.
	StallTime float64
	// Reroutes counts the path-set replacements applied to the connection
	// by topology events while it was outstanding.
	Reroutes int
}

// FCT returns the flow completion time.
func (c ConnResult) FCT() float64 { return c.Finish - c.Start }

// TopoEvent is one scheduled mid-run change to the simulated fabric: link
// failures drive capacities to zero the instant they happen (the data
// plane blackholes immediately), and the control plane's reaction arrives
// as a later reroute event — the churn engine compiles failure traces into
// exactly this pair.
type TopoEvent struct {
	// Time is when the change takes effect, in simulation seconds.
	Time float64
	// SetCaps overwrites the capacity of the given directed link slots
	// (see routing.DirectedLinkIDs); zero fails a direction. NaN and
	// negative values are rejected when the event applies.
	SetCaps map[int]float64
	// Reroute replaces the path sets of connections by index. The new set
	// applies to running connections and to ones that have not arrived
	// yet. An empty list disconnects the connection: it stalls until a
	// later event restores paths (or forever, reported as stall time).
	Reroute map[int][][]int
}

// Sim is an event-driven flow-level simulation over a fixed topology.
//
// Run and RunStream share one event loop (stream.go) over a
// struct-of-arrays allocator core (soa.go): dense per-connection and
// per-subflow arrays, a flat link arena, and per-link membership
// maintained incrementally across events. The seed implementation lives
// on only in the tests (reference_test.go), where the differential suite
// pins the loop to byte-identical results, so Run's output is the seed's
// output — only faster.
type Sim struct {
	caps  []float64
	specs []ConnSpec

	// LocalRate is the rate granted to loopback (same-host) paths;
	// defaults to 10 (link speed) if zero.
	LocalRate float64
	// Horizon stops the simulation at this time even if flows remain;
	// zero means run to completion of all finite flows.
	Horizon float64

	// Graceful switches starved finite connections from erroring the run
	// to stalling: a connection whose every subflow sits at zero rate is
	// parked and retries with bounded exponential backoff, accruing
	// StallTime until a topology event revives it. Schedule sets this
	// automatically; it can also be enabled for static runs.
	Graceful bool
	// RetryBase and RetryMax bound the stall-retry backoff in seconds
	// (the RTO-style doubling of a transport that lost its path); zero
	// values default to 1 ms and 256 ms.
	RetryBase, RetryMax float64

	// Rec, when set, receives the run's sim-time flight-recorder events
	// (flow start/stall/reroute/retire/disconnect plus one event per
	// allocation round). Concurrent simulations must use distinct
	// tracks so each stream stays deterministic; nil costs one branch
	// per would-be event.
	Rec *recorder.Track

	events []TopoEvent
}

// NewSim creates a simulation over links with the given capacities.
// Capacities are validated when the simulation runs: NaN or negative
// entries fail Run with a descriptive error instead of propagating NaN
// rates through the allocator.
func NewSim(caps []float64, specs []ConnSpec) *Sim {
	return &Sim{caps: caps, specs: specs, LocalRate: 10}
}

// Schedule installs mid-run topology events, sorted by time (ties keep
// argument order), and enables graceful degradation — scheduled failures
// mean paths can die mid-run, which must stall flows rather than abort
// the whole experiment.
func (s *Sim) Schedule(events []TopoEvent) {
	s.events = append(s.events[:0:0], events...)
	sort.SliceStable(s.events, func(a, b int) bool { return s.events[a].Time < s.events[b].Time })
	s.Graceful = true
}

func (s *Sim) retryBounds() (base, max float64) {
	base, max = s.RetryBase, s.RetryMax
	if base <= 0 {
		base = 1e-3
	}
	if max <= 0 {
		max = 0.256
	}
	if max < base {
		max = base
	}
	return base, max
}

// validateSpec rejects the spec values the seed core silently accepted
// and then looped or NaN-poisoned on: NaN sizes and weights, negative
// weights, non-finite arrivals. Negative arrivals are rejected too: the
// loop starts at t=0, so such a connection would be admitted at 0 while
// reporting its earlier Start, inflating its FCT.
func validateSpec(i int, sp ConnSpec, graceful bool) error {
	if len(sp.Paths) == 0 && !graceful {
		return fmt.Errorf("flowsim: connection %d has no paths", i)
	}
	if math.IsNaN(sp.Bits) || sp.Bits <= 0 {
		return fmt.Errorf("flowsim: connection %d has size %v", i, sp.Bits)
	}
	if math.IsNaN(sp.Weight) || sp.Weight < 0 {
		return fmt.Errorf("flowsim: connection %d has weight %v", i, sp.Weight)
	}
	if math.IsNaN(sp.Arrival) || math.IsInf(sp.Arrival, 0) || sp.Arrival < 0 {
		return fmt.Errorf("flowsim: connection %d has arrival %v", i, sp.Arrival)
	}
	return nil
}

// Run executes the simulation and returns per-connection results in spec
// order. It is an adapter over the event loop RunStream also uses: specs
// are fed in stable arrival order with their index as id, and Reroute
// events address connections by that index.
func (s *Sim) Run() ([]ConnResult, error) {
	if err := validateCaps(s.caps); err != nil {
		return nil, err
	}
	n := len(s.specs)
	results := make([]ConnResult, n)
	order := make([]int, n)
	for i, sp := range s.specs {
		if err := validateSpec(i, sp, s.Graceful); err != nil {
			return nil, err
		}
		results[i] = ConnResult{Start: sp.Arrival, Finish: math.Inf(1), Bits: sp.Bits}
		order[i] = i
	}
	if n == 0 {
		return results, nil // nothing arrives, so no event applies
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.specs[order[a]].Arrival < s.specs[order[b]].Arrival
	})
	rr := newReroutes(s.specs, s.events)
	k := 0
	next := func() (int, ConnSpec, bool, error) {
		if k == n {
			return 0, ConnSpec{}, false, nil
		}
		c := order[k]
		k++
		return c, s.specs[c], true, nil
	}
	if err := s.loop(next, func(id int, res ConnResult) { results[id] = res }, rr, n); err != nil {
		return nil, err
	}
	if rr != nil {
		// Connections the horizon cut off before they arrived never reach
		// the sink, but keep the reroutes applied while they waited.
		for c, slot := range rr.slot {
			if slot == notArrived {
				results[c].Reroutes = rr.count[c]
			}
		}
	}
	return results, nil
}

// StaticRates computes the steady-state connection rates if every
// connection were active simultaneously — the allocation used for the
// throughput experiments of §5.1 where all flows run concurrently.
func StaticRates(caps []float64, specs []ConnSpec, localRate float64) ([]float64, error) {
	if err := validateCaps(caps); err != nil {
		return nil, err
	}
	if localRate <= 0 {
		localRate = 10
	}
	st := newAllocState(caps, len(specs))
	run := make([]int32, len(specs))
	for i, sp := range specs {
		if len(sp.Paths) == 0 {
			return nil, fmt.Errorf("flowsim: connection %d has no paths", i)
		}
		if err := st.admit(i, i, sp.Weight, sp.Paths); err != nil {
			return nil, err
		}
		run[i] = int32(i)
	}
	st.allocate(run)
	out := make([]float64, len(specs))
	for i := range specs {
		out[i] = st.rate(i, localRate)
	}
	return out, nil
}
