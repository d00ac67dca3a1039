package flowsim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"flattree/internal/recorder"
	"flattree/internal/telemetry"
)

// RunStream executes the simulation over a stream of connections instead
// of a materialized spec slice: next is pulled lazily in arrival order
// (arrivals must be nondecreasing), and each connection's result is
// pushed to sink the moment it retires — id is the connection's position
// in the stream, counted from zero. Memory is bounded by the peak
// concurrent flow count, not the stream length, which is what lets the
// 10M-flow Facebook-mix runs fit: connection slots are recycled through
// a free list and the allocator's arenas compact when abandoned ranges
// dominate.
//
// RunStream and Run share one event loop; Run is the adapter that feeds
// it a spec slice. Scheduled events may only set capacities here: Reroute
// events address connections by spec index, which a stream cannot resolve
// ahead of time, so they are rejected.
//
// Connections still outstanding when the simulation stops (horizon, or
// only persistent flows remain) are flushed to sink in ascending id
// order with Finish = +Inf, mirroring Run's results for unfinished
// connections.
func (s *Sim) RunStream(next func() (ConnSpec, bool), sink func(id int, res ConnResult)) error {
	for _, ev := range s.events {
		if len(ev.Reroute) > 0 {
			return fmt.Errorf("flowsim: RunStream supports capacity events only (reroute at t=%v)", ev.Time)
		}
	}
	if err := validateCaps(s.caps); err != nil {
		return err
	}
	id := -1
	lastArrival := math.Inf(-1)
	return s.loop(func() (int, ConnSpec, bool, error) {
		sp, ok := next()
		if !ok {
			return 0, ConnSpec{}, false, nil
		}
		id++
		if err := validateSpec(id, sp, s.Graceful); err != nil {
			return 0, ConnSpec{}, false, err
		}
		if sp.Arrival < lastArrival {
			return 0, ConnSpec{}, false, fmt.Errorf("flowsim: stream connection %d arrives at %v, before %v — arrivals must be nondecreasing",
				id, sp.Arrival, lastArrival)
		}
		lastArrival = sp.Arrival
		return id, sp, true, nil
	}, sink, nil, 0)
}

// Connection states in reroutes.slot besides an active slot index.
const (
	notArrived int32 = -1
	retired    int32 = -2
)

// reroutes is the loop's by-id view of every connection, needed only when
// a scheduled event carries a Reroute: those address connections by spec
// index, so the loop must know each one's state, current path set, and
// the reroutes it received before arriving.
type reroutes struct {
	specs []ConnSpec // per id: the spec, Paths replaced by the latest reroute
	slot  []int32    // per id: notArrived, retired, or the active slot
	count []int      // per id: reroutes applied before arrival
}

// newReroutes returns the reroute state for specs, or nil when no event
// carries a Reroute — the common case, which then allocates nothing.
func newReroutes(specs []ConnSpec, events []TopoEvent) *reroutes {
	for _, ev := range events {
		if len(ev.Reroute) == 0 {
			continue
		}
		rr := &reroutes{
			specs: append([]ConnSpec(nil), specs...),
			slot:  make([]int32, len(specs)),
			count: make([]int, len(specs)),
		}
		for i := range rr.slot {
			rr.slot[i] = notArrived
		}
		return rr
	}
	return nil
}

// loop is the event loop behind Run and RunStream, which validate the
// capacities first. next yields validated connections in nondecreasing
// arrival order with their ids; sink receives each connection's result
// once, when it retires or when the run stops. rr must be non-nil if any
// scheduled event carries a Reroute. hint pre-sizes the per-slot state:
// Run passes its spec count, which bounds the peak slot count; a stream's
// length is unknown, so RunStream passes 0 and the state grows.
//
// The active set is kept sorted by ascending id — the order that fixes
// the allocator's float accumulation. Stream ids arrive in order and
// append; only Run, whose arrival order can differ from spec order,
// inserts mid-list.
func (s *Sim) loop(next func() (int, ConnSpec, bool, error), sink func(id int, res ConnResult), rr *reroutes, hint int) error {
	// Capacities are private: topology events mutate them mid-run. The
	// allocator core aliases this slice, so SetCaps writes land without
	// a rebuild.
	caps := append([]float64(nil), s.caps...)
	retryBase, retryMax := s.retryBounds()
	st := newAllocState(caps, hint)

	// Per-slot state, recycled with the slot. Slot count tracks the peak
	// concurrent flow count.
	var (
		res       = make([]ConnResult, 0, hint)
		remaining = make([]float64, 0, hint)
		stalled   = make([]bool, 0, hint)
		retrying  = make([]bool, 0, hint)
		backoff   = make([]float64, 0, hint)
		nextRetry = make([]float64, 0, hint)
		freeSlots []int32
	)
	newSlot := func() int32 {
		if k := len(freeSlots); k > 0 {
			slot := freeSlots[k-1]
			freeSlots = freeSlots[:k-1]
			return slot
		}
		res = append(res, ConnResult{})
		remaining = append(remaining, 0)
		stalled = append(stalled, false)
		retrying = append(retrying, false)
		backoff = append(backoff, 0)
		nextRetry = append(nextRetry, 0)
		st.growSlots(len(res))
		return int32(len(res) - 1)
	}

	activeIDs := make([]int, 0, 64)
	activeSlots := make([]int32, 0, 64)
	runSlots := make([]int32, 0, 64)
	runIDs := make([]int, 0, 64)
	runRates := make([]float64, 0, 64)

	// One-connection lookahead over next.
	pendID, pend, pendOK, err := next()
	if err != nil {
		return err
	}

	nextEvent := 0
	t := 0.0
	// Handles are resolved once per run; nil (disabled) handles cost one
	// predictable branch per use.
	events := telemetry.C("flowsim_events_total")
	completed := telemetry.C("flowsim_flows_completed_total")
	fct := telemetry.H("flowsim_fct_seconds")
	stalls := telemetry.C("flowsim_stalls_total")
	rerouted := telemetry.C("flowsim_reroutes_total")
	disconnected := telemetry.C("flowsim_disconnected_total")
	stallHist := telemetry.H("flowsim_stall_seconds")

	// emit delivers one finished (or flushed) connection to the caller,
	// observing its stall time exactly once.
	//
	//flatvet:hotpath streaming emit path, once per finished flow
	emit := func(id int, slot int32) {
		if res[slot].StallTime > 0 {
			stallHist.Observe(res[slot].StallTime)
		}
		sink(id, res[slot])
	}
	// stall parks a connection at time now: a fresh stall starts the
	// backoff at its base; a failed retry probe doubles it up to the cap.
	//
	//flatvet:hotpath stall bookkeeping runs inside the event loop
	stall := func(slot int32, id int, now float64) {
		if stalled[slot] {
			return
		}
		stalled[slot] = true
		if retrying[slot] {
			backoff[slot] *= 2
			if backoff[slot] > retryMax {
				backoff[slot] = retryMax
			}
		} else {
			backoff[slot] = retryBase
			stalls.Inc()
			s.Rec.Emit(recorder.Event{T: now, Kind: recorder.FlowStall, ID: id})
		}
		retrying[slot] = false
		nextRetry[slot] = now + backoff[slot]
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
					return fmt.Errorf("flowsim: event at t=%v sets capacity of link %d of %d", ev.Time, id, len(caps))
				}
				if math.IsNaN(cp) || cp < 0 {
					return fmt.Errorf("flowsim: event at t=%v sets link %d capacity %v (want >= 0)", ev.Time, id, cp)
				}
				caps[id] = cp
			}
			if len(ev.Reroute) == 0 {
				continue
			}
			// Reroutes apply in ascending connection order (bookkeeping
			// only — path replacement is order-independent, counters are
			// not).
			ids := make([]int, 0, len(ev.Reroute))
			for c := range ev.Reroute {
				ids = append(ids, c)
			}
			sort.Ints(ids)
			for _, c := range ids {
				if c < 0 || c >= len(rr.slot) {
					return fmt.Errorf("flowsim: event at t=%v reroutes connection %d of %d", ev.Time, c, len(rr.slot))
				}
				slot := rr.slot[c]
				if slot == retired {
					continue
				}
				paths := ev.Reroute[c]
				rr.specs[c].Paths = paths
				if slot == notArrived {
					rr.count[c]++
				} else {
					if err := st.setPaths(int(slot), c, rr.specs[c].Weight, paths); err != nil {
						return err
					}
					res[slot].Reroutes++
				}
				rerouted.Inc()
				s.Rec.Emit(recorder.Event{T: ev.Time, Kind: recorder.FlowReroute, ID: c, A: int64(len(paths))})
			}
		}
		// Admit arrivals at the current time, pulling the stream forward.
		for pendOK && pend.Arrival <= t+1e-12 {
			slot := newSlot()
			id := pendID
			res[slot] = ConnResult{Start: pend.Arrival, Finish: math.Inf(1), Bits: pend.Bits}
			if rr != nil {
				pend.Paths = rr.specs[id].Paths
				res[slot].Reroutes = rr.count[id]
				rr.slot[id] = slot
			}
			if err := st.admit(int(slot), id, pend.Weight, pend.Paths); err != nil {
				return err
			}
			remaining[slot] = pend.Bits
			stalled[slot], retrying[slot] = false, false
			backoff[slot], nextRetry[slot] = 0, 0
			i := len(activeIDs)
			if i > 0 && id < activeIDs[i-1] {
				i, _ = slices.BinarySearch(activeIDs, id)
			}
			activeIDs = slices.Insert(activeIDs, i, id)
			activeSlots = slices.Insert(activeSlots, i, slot)
			s.Rec.Emit(recorder.Event{T: pend.Arrival, Kind: recorder.FlowStart, ID: id, A: int64(len(pend.Paths))})
			if pendID, pend, pendOK, err = next(); err != nil {
				return err
			}
		}
		// Wake stalled connections whose retry timer fired; the allocation
		// below decides whether the probe succeeds.
		for _, slot := range activeSlots {
			if stalled[slot] && nextRetry[slot] <= t+1e-12 {
				stalled[slot] = false
				retrying[slot] = true
			}
		}
		if len(activeIDs) == 0 {
			if !pendOK {
				break
			}
			// Jump to whichever comes first: the next arrival or the next
			// topology event (events still apply with no flows running,
			// keeping capacities and path sets current for later
			// arrivals).
			jump := pend.Arrival
			if nextEvent < len(s.events) && s.events[nextEvent].Time < jump {
				jump = s.events[nextEvent].Time
			}
			t = jump
			continue
		}
		// Allocate rates for the running (non-stalled) set, ascending id.
		runSlots, runIDs = runSlots[:0], runIDs[:0]
		for i, slot := range activeSlots {
			if !stalled[slot] {
				runSlots = append(runSlots, slot)
				runIDs = append(runIDs, activeIDs[i])
			}
		}
		st.allocate(runSlots)
		runRates = runRates[:0]
		for _, slot := range runSlots {
			runRates = append(runRates, st.rate(int(slot), s.LocalRate))
		}
		s.Rec.Emit(recorder.Event{T: t, Kind: recorder.AllocRound, A: int64(len(runSlots)), B: int64(len(activeIDs))})
		// Graceful degradation: finite connections at zero rate lost every
		// path. While future events could revive them they park and retry;
		// once no event or arrival remains, nothing can — park them for
		// good (infinite retry timer), so they accrue stall time for the
		// rest of the simulated span instead of burning retry probes.
		if s.Graceful {
			noFuture := !pendOK && nextEvent >= len(s.events)
			starved := false
			for ri, slot := range runSlots {
				if math.IsInf(remaining[slot], 1) {
					continue
				}
				if runRates[ri] <= 1e-15 {
					if noFuture {
						stalled[slot] = true
						retrying[slot] = false
						nextRetry[slot] = math.Inf(1)
						disconnected.Inc()
						s.Rec.Emit(recorder.Event{T: t, Kind: recorder.FlowDisconnect, ID: runIDs[ri]})
					} else {
						stall(slot, runIDs[ri], t)
					}
					starved = true
					continue
				}
				retrying[slot] = false // probe succeeded: connection resumed
			}
			if starved {
				continue // reallocate without the just-parked connections
			}
		}
		// Next event: earliest completion, arrival, topology event, or
		// stall-retry probe.
		nextT := math.Inf(1)
		if pendOK {
			nextT = pend.Arrival
		}
		if nextEvent < len(s.events) && s.events[nextEvent].Time < nextT {
			nextT = s.events[nextEvent].Time
		}
		for _, slot := range activeSlots {
			if stalled[slot] && nextRetry[slot] < nextT {
				nextT = nextRetry[slot]
			}
		}
		completing := int32(-1)
		for ri, slot := range runSlots {
			r := runRates[ri]
			if math.IsInf(remaining[slot], 1) || r <= 1e-15 {
				continue
			}
			if fin := t + remaining[slot]/r; fin < nextT {
				nextT = fin
				completing = slot
			}
		}
		if s.Horizon > 0 && nextT > s.Horizon {
			// Stop at the horizon; account stall time up to it. Progress
			// needs no update: unfinished connections report no remainder.
			dt := s.Horizon - t
			for _, slot := range activeSlots {
				if stalled[slot] {
					res[slot].StallTime += dt
				}
			}
			break
		}
		if math.IsInf(nextT, 1) {
			// Only persistent or starved flows remain. Stalled connections
			// sit at rate zero by construction, so the starvation check
			// only concerns the running set.
			for ri, slot := range runSlots {
				if runRates[ri] <= 1e-15 && !math.IsInf(remaining[slot], 1) {
					return fmt.Errorf("flowsim: connection %d starved (disconnected path set?)", runIDs[ri])
				}
			}
			break
		}
		dt := nextT - t
		for ri, slot := range runSlots {
			remaining[slot] -= runRates[ri] * dt
		}
		for _, slot := range activeSlots {
			if stalled[slot] {
				res[slot].StallTime += dt
			}
		}
		t = nextT
		// Retire completed connections (the chosen one plus any that hit
		// zero within tolerance): sink the result, recycle the slot.
		anyRetired := false
		for ri, slot := range runSlots {
			if !math.IsInf(remaining[slot], 1) && (slot == completing || remaining[slot] <= 1e-6) {
				id := runIDs[ri]
				res[slot].Finish = t
				st.retire(int(slot), id)
				if rr != nil {
					rr.slot[id] = retired
				}
				anyRetired = true
				completed.Inc()
				fct.Observe(res[slot].FCT())
				s.Rec.Emit(recorder.Event{T: t, Kind: recorder.FlowRetire, ID: id,
					V: res[slot].FCT(), A: int64(res[slot].Reroutes)})
				emit(id, slot)
				remaining[slot] = math.NaN() // slot is dead until reused
				freeSlots = append(freeSlots, slot)
			}
		}
		if anyRetired {
			// Compact the active lists in place; retired slots are the ones
			// just pushed to the free list.
			keptIDs, keptSlots := activeIDs[:0], activeSlots[:0]
			for i, slot := range activeSlots {
				if !math.IsNaN(remaining[slot]) {
					keptIDs = append(keptIDs, activeIDs[i])
					keptSlots = append(keptSlots, slot)
				}
			}
			activeIDs, activeSlots = keptIDs, keptSlots
			st.maybeCompact(activeIDs, activeSlots)
		}
	}
	// Flush the still-outstanding connections in ascending id order; their
	// Finish stays +Inf.
	for i, id := range activeIDs {
		emit(id, activeSlots[i])
	}
	return nil
}
