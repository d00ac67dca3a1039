package flowsim

import (
	"fmt"
	"math"
	"sort"

	"flattree/internal/recorder"
	"flattree/internal/telemetry"
)

// This file retains the seed simulator core as a test-only reference
// implementation. The exported Run/RunStream/MaxMinRates entry points
// execute on the struct-of-arrays core (soa.go) and the shared event loop
// (stream.go); the differential suite (differential_test.go,
// stream_test.go, fuzz_test.go) pins them by requiring byte-identical
// ConnResult slices — rates, FCTs, stall times, reroute counts — against
// this core on seeded random workloads, churn traces and fuzz inputs. It
// is compiled only into tests, so "the refactor changed nothing but speed"
// is a property the test suite enforces rather than a claim in a commit
// message.

// sortedActive returns the active connection IDs in ascending order. Every
// per-event loop iterates this slice instead of the active map, so float
// accumulation order — and therefore output bytes — are independent of map
// layout.
func sortedActive(active map[int]bool) []int {
	ids := make([]int, 0, len(active))
	for c := range active {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	return ids
}

// runReference executes the simulation on the seed (pre-SoA) core and
// returns per-connection results in spec order. It must stay byte-for-byte
// equivalent to the seed Run: the differential suite treats its output as
// ground truth.
func (s *Sim) runReference() ([]ConnResult, error) {
	n := len(s.specs)
	results := make([]ConnResult, n)
	remaining := make([]float64, n)
	paths := make([][][]int, n)
	order := make([]int, n)
	for i, sp := range s.specs {
		if len(sp.Paths) == 0 && !s.Graceful {
			return nil, fmt.Errorf("flowsim: connection %d has no paths", i)
		}
		if sp.Bits <= 0 {
			return nil, fmt.Errorf("flowsim: connection %d has size %v", i, sp.Bits)
		}
		results[i] = ConnResult{Start: sp.Arrival, Finish: math.Inf(1), Bits: sp.Bits}
		remaining[i] = sp.Bits
		paths[i] = sp.Paths
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return s.specs[order[a]].Arrival < s.specs[order[b]].Arrival
	})

	// Capacities are private: topology events mutate them mid-run.
	caps := append([]float64(nil), s.caps...)
	retryBase, retryMax := s.retryBounds()

	active := make(map[int]bool)
	stalled := make([]bool, n)  // parked: excluded from allocation
	retrying := make([]bool, n) // woken for a backoff probe this instant
	backoff := make([]float64, n)
	nextRetry := make([]float64, n)
	nextArrival := 0
	nextEvent := 0
	t := 0.0
	if n == 0 {
		return results, nil
	}
	// Handles are resolved once per run; nil (disabled) handles cost one
	// predictable branch per use.
	events := telemetry.C("flowsim_events_total")
	completed := telemetry.C("flowsim_flows_completed_total")
	fct := telemetry.H("flowsim_fct_seconds")
	stalls := telemetry.C("flowsim_stalls_total")
	reroutes := telemetry.C("flowsim_reroutes_total")
	disconnected := telemetry.C("flowsim_disconnected_total")
	stallHist := telemetry.H("flowsim_stall_seconds")

	// finish records stall histograms once and returns the results.
	finish := func() []ConnResult {
		for i := range results {
			if results[i].StallTime > 0 {
				stallHist.Observe(results[i].StallTime)
			}
		}
		return results
	}
	// stall parks connection c at time now: a fresh stall starts the
	// backoff at its base; a failed retry probe doubles it up to the cap.
	stall := func(c int, now float64) {
		if stalled[c] {
			return
		}
		stalled[c] = true
		if retrying[c] {
			backoff[c] *= 2
			if backoff[c] > retryMax {
				backoff[c] = retryMax
			}
		} else {
			backoff[c] = retryBase
			stalls.Inc()
			s.Rec.Emit(recorder.Event{T: now, Kind: recorder.FlowStall, ID: c})
		}
		retrying[c] = false
		nextRetry[c] = now + backoff[c]
	}

	for {
		events.Inc()
		// Apply topology events due at the current time, in schedule order.
		for nextEvent < len(s.events) && s.events[nextEvent].Time <= t+1e-12 {
			ev := s.events[nextEvent]
			nextEvent++
			//flatvet:ordered writes to distinct link slots; order-independent
			for id, cp := range ev.SetCaps {
				if id < 0 || id >= len(caps) {
					return nil, fmt.Errorf("flowsim: event at t=%v sets capacity of link %d of %d", ev.Time, id, len(caps))
				}
				caps[id] = cp
			}
			// Reroutes apply in ascending connection order (bookkeeping
			// only — path replacement is order-independent, counters are
			// not).
			recs := make([]int, 0, len(ev.Reroute))
			for c := range ev.Reroute {
				recs = append(recs, c)
			}
			sort.Ints(recs)
			for _, c := range recs {
				if c < 0 || c >= n {
					return nil, fmt.Errorf("flowsim: event at t=%v reroutes connection %d of %d", ev.Time, c, n)
				}
				if !math.IsInf(results[c].Finish, 1) {
					continue // already completed
				}
				paths[c] = ev.Reroute[c]
				results[c].Reroutes++
				reroutes.Inc()
				s.Rec.Emit(recorder.Event{T: ev.Time, Kind: recorder.FlowReroute, ID: c, A: int64(len(paths[c]))})
			}
		}
		// Admit arrivals at the current time.
		for nextArrival < n && s.specs[order[nextArrival]].Arrival <= t+1e-12 {
			c := order[nextArrival]
			active[c] = true
			nextArrival++
			s.Rec.Emit(recorder.Event{T: s.specs[c].Arrival, Kind: recorder.FlowStart, ID: c, A: int64(len(paths[c]))})
		}
		// Wake stalled connections whose retry timer fired; the allocation
		// below decides whether the probe succeeds.
		act := sortedActive(active)
		for _, c := range act {
			if stalled[c] && nextRetry[c] <= t+1e-12 {
				stalled[c] = false
				retrying[c] = true
			}
		}
		if len(active) == 0 {
			if nextArrival >= n {
				break
			}
			// Jump to whichever comes first: the next arrival or the next
			// topology event (events still apply with no flows running,
			// keeping capacities and path sets current for later
			// arrivals).
			jump := s.specs[order[nextArrival]].Arrival
			if nextEvent < len(s.events) && s.events[nextEvent].Time < jump {
				jump = s.events[nextEvent].Time
			}
			t = jump
			continue
		}
		// Allocate rates for the running (non-stalled) set.
		run := make([]int, 0, len(act))
		for _, c := range act {
			if !stalled[c] {
				run = append(run, c)
			}
		}
		connRates, err := s.allocateRef(caps, run, paths)
		if err != nil {
			return nil, err
		}
		s.Rec.Emit(recorder.Event{T: t, Kind: recorder.AllocRound, A: int64(len(run)), B: int64(len(act))})
		// Graceful degradation: finite connections at zero rate lost every
		// path. While future events could revive them they park and retry;
		// once no event or arrival remains, nothing can — park them for
		// good (infinite retry timer), so they accrue stall time for the
		// rest of the simulated span instead of burning retry probes.
		if s.Graceful {
			noFuture := nextArrival >= n && nextEvent >= len(s.events)
			starved := false
			for _, c := range run {
				if math.IsInf(remaining[c], 1) {
					continue
				}
				if connRates[c] <= 1e-15 {
					if noFuture {
						stalled[c] = true
						retrying[c] = false
						nextRetry[c] = math.Inf(1)
						disconnected.Inc()
						s.Rec.Emit(recorder.Event{T: t, Kind: recorder.FlowDisconnect, ID: c})
					} else {
						stall(c, t)
					}
					starved = true
					continue
				}
				retrying[c] = false // probe succeeded: connection resumed
			}
			if starved {
				continue // reallocate without the just-parked connections
			}
		}
		// Next event: earliest completion, arrival, topology event, or
		// stall-retry probe.
		nextT := math.Inf(1)
		if nextArrival < n {
			nextT = s.specs[order[nextArrival]].Arrival
		}
		if nextEvent < len(s.events) && s.events[nextEvent].Time < nextT {
			nextT = s.events[nextEvent].Time
		}
		for _, c := range act {
			if stalled[c] && nextRetry[c] < nextT {
				nextT = nextRetry[c]
			}
		}
		completing := -1
		for _, c := range run {
			r := connRates[c]
			if math.IsInf(remaining[c], 1) || r <= 1e-15 {
				continue
			}
			if fin := t + remaining[c]/r; fin < nextT {
				nextT = fin
				completing = c
			}
		}
		if s.Horizon > 0 && nextT > s.Horizon {
			// Stop at the horizon; account progress (and stall) up to it.
			dt := s.Horizon - t
			for _, c := range run {
				remaining[c] -= connRates[c] * dt
			}
			for _, c := range act {
				if stalled[c] {
					results[c].StallTime += dt
				}
			}
			return finish(), nil
		}
		if math.IsInf(nextT, 1) {
			// Only persistent or starved flows remain.
			for _, c := range act {
				if connRates[c] <= 1e-15 && !math.IsInf(remaining[c], 1) && !stalled[c] {
					return nil, fmt.Errorf("flowsim: connection %d starved (disconnected path set?)", c)
				}
			}
			return finish(), nil
		}
		dt := nextT - t
		for _, c := range run {
			remaining[c] -= connRates[c] * dt
		}
		for _, c := range act {
			if stalled[c] {
				results[c].StallTime += dt
			}
		}
		t = nextT
		// Retire completed connections (the chosen one plus any that hit
		// zero within tolerance).
		for _, c := range run {
			if !active[c] {
				continue
			}
			if !math.IsInf(remaining[c], 1) && (c == completing || remaining[c] <= 1e-6) {
				results[c].Finish = t
				delete(active, c)
				completed.Inc()
				fct.Observe(results[c].FCT())
				s.Rec.Emit(recorder.Event{T: t, Kind: recorder.FlowRetire, ID: c,
					V: results[c].FCT(), A: int64(results[c].Reroutes)})
			}
		}
	}
	return finish(), nil
}

// allocateRef computes per-connection rates for the given connection IDs
// over the current capacities and path sets, on the reference allocator.
// IDs must be sorted ascending: the subflow build order fixes the
// allocator's float accumulation order.
func (s *Sim) allocateRef(caps []float64, ids []int, paths [][][]int) ([]float64, error) {
	var subs []Subflow
	for _, c := range ids {
		sp := s.specs[c]
		pl := paths[c]
		if len(pl) == 0 {
			continue // disconnected: no subflows, rate 0
		}
		w := sp.Weight
		if w == 0 {
			w = 1
		}
		per := w / float64(len(pl))
		for _, p := range pl {
			subs = append(subs, Subflow{Conn: c, Links: p, Weight: per})
		}
	}
	rates, err := maxMinRatesRef(caps, subs)
	if err != nil {
		return nil, err
	}
	return ConnRates(len(s.specs), subs, rates, s.LocalRate), nil
}

// maxMinRatesRef is the seed progressive-filling allocator: every round
// re-scans all of caps for the bottleneck and the drain. MaxMinRates must
// reproduce its output bit-for-bit (same float op order) while only
// touching loaded links.
func maxMinRatesRef(caps []float64, subs []Subflow) ([]float64, error) {
	rates := make([]float64, len(subs))
	if len(subs) == 0 {
		return rates, nil
	}
	remaining := append([]float64(nil), caps...)
	active := make([]bool, len(subs))
	// linkWeight[l] = total weight of active subflows crossing l;
	// linkCount[l] is the exact active-subflow count — the authoritative
	// emptiness test (accumulated floating-point residue in linkWeight
	// must never keep a link "loaded" after its subflows all froze).
	linkWeight := make([]float64, len(caps))
	linkCount := make([]int, len(caps))
	linkSubs := make([][]int, len(caps))
	nActive := 0
	for i, s := range subs {
		if s.Weight <= 0 {
			return nil, fmt.Errorf("flowsim: subflow %d has weight %v", i, s.Weight)
		}
		if len(s.Links) == 0 {
			// Loopback path: unconstrained by the fabric; the caller
			// grants these the local rate (see ConnRates).
			continue
		}
		active[i] = true
		nActive++
		for _, l := range s.Links {
			if l < 0 || l >= len(caps) {
				return nil, fmt.Errorf("flowsim: subflow %d references link %d of %d", i, l, len(caps))
			}
			linkWeight[l] += s.Weight
			linkCount[l]++
			linkSubs[l] = append(linkSubs[l], i)
		}
	}

	level := 0.0 // current water level (rate per unit weight)
	rounds := int64(0)
	for nActive > 0 {
		rounds++
		// Find the link that saturates next: smallest additional level
		// Δ = remaining[l] / linkWeight[l] over links with active load.
		bottleneck := -1
		best := math.Inf(1)
		for l := range caps {
			if linkCount[l] == 0 {
				continue
			}
			if d := remaining[l] / linkWeight[l]; d < best {
				best = d
				bottleneck = l
			}
		}
		if bottleneck < 0 {
			break
		}
		level += best
		// Drain every loaded link by the growth of this round.
		for l := range caps {
			if linkCount[l] > 0 {
				remaining[l] -= best * linkWeight[l]
				if remaining[l] < 0 {
					remaining[l] = 0
				}
			}
		}
		// Freeze subflows crossing the bottleneck (and any other link
		// that just hit zero). Freezing the bottleneck's subflows is
		// unconditional, guaranteeing progress every round.
		frozeAny := false
		for l := range caps {
			if linkCount[l] == 0 {
				continue
			}
			if l != bottleneck && remaining[l] > 1e-12 {
				continue
			}
			for _, si := range linkSubs[l] {
				if !active[si] {
					continue
				}
				active[si] = false
				nActive--
				frozeAny = true
				rates[si] = subs[si].Weight * level
				for _, sl := range subs[si].Links {
					linkWeight[sl] -= subs[si].Weight
					linkCount[sl]--
					if linkCount[sl] == 0 {
						linkWeight[sl] = 0
					}
				}
			}
		}
		if !frozeAny {
			// Defensive: cannot happen (the bottleneck always freezes),
			// but never spin.
			break
		}
	}
	telemetry.C("flowsim_allocations_total").Inc()
	telemetry.C("flowsim_alloc_rounds_total").Add(rounds)
	return rates, nil
}
