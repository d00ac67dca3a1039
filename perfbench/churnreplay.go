package main

import (
	"fmt"
	"math"

	"flattree/internal/churn"
	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/flowsim"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// churnReplay prices a failure/repair trace on the reduced
// flat-tree in Clos and global modes, as the churn experiment does:
// churn.Engine.Compile repairs the route table incrementally
// (routing.IncrementalTable re-runs Yen on the dirty pairs), then
// flowsim.Sim.Run replays the plan's topology events over finite web
// trace flows. Set-up is the network build with profiling, each mode's
// k=8 route table (the table Compile starts from), and the inputs; a pass
// compiles and replays both modes.
type churnReplay struct {
	seed  int64
	flows int

	modes []churnMode
}

// churnMode is one mode's prepared inputs.
type churnMode struct {
	mode  core.Mode
	t     *topo.Topology
	trace churn.Trace
	conns []churn.Conn
}

const (
	// churnFlows is the number of finite web-trace flows replayed per mode.
	churnFlows = 20_000
	// churnFailures is the trace's failure count (each later repaired).
	churnFailures = 8
	churnK        = 8
	churnDetect   = 0.05
	churnMTTR     = 0.25
	churnHorizon  = 60
	// churnTraceSeed fixes the failure trace: which links fail and when do
	// not depend on the run's seed, which draws the traffic instead. The
	// incremental repair work is then the same for every seed.
	churnTraceSeed = 31
)

func (w *churnReplay) setup() error {
	nw, err := flatTree("mini-1")
	if err != nil {
		return err
	}
	cp := nw.Clos()
	duration := float64(w.flows) / fbmixArrivalRate
	w.modes = w.modes[:0]
	for _, mode := range []core.Mode{core.ModeClos, core.ModeGlobal} {
		nw.SetMode(mode)
		t := nw.Realize().Topo
		routing.BuildKShortestCached(t, churnK)
		servers := t.Servers()
		spec, err := traffic.FacebookSpec("web", len(servers), cp.ServersPerEdge, cp.EdgesPerPod, w.flows, w.seed+13)
		if err != nil {
			return err
		}
		spec.Duration = duration
		spec.SizeMedianGbit *= fbmixSizeScale
		flows, err := traffic.Generate(spec)
		if err != nil {
			return err
		}
		conns := make([]churn.Conn, len(flows))
		for i, f := range flows {
			conns[i] = churn.Conn{Src: servers[f.Src], Dst: servers[f.Dst], Bits: f.Bits, Arrival: f.Arrival}
		}
		trace, err := churn.GenerateTraceChecked(t, churnFailures, duration, churnMTTR, churnTraceSeed)
		if err != nil {
			return err
		}
		w.modes = append(w.modes, churnMode{mode: mode, t: t, trace: trace, conns: conns})
	}
	return nil
}

func (w *churnReplay) pass(tr *tracer, r *result) error {
	for i := range w.modes {
		m := &w.modes[i]
		plan, res, err := m.replay(tr)
		if err != nil {
			return err
		}

		// Every trace event must yield a priced reaction: detection plus a
		// finite rule-update time.
		r.Attempted += len(m.trace)
		if len(plan.Reactions) != len(m.trace) {
			r.fail("churn %v: %d reactions for %d trace events", m.mode, len(plan.Reactions), len(m.trace))
			r.Failed += len(m.trace) - 1
		} else {
			for i, d := range plan.Reactions {
				if math.IsNaN(d) || math.IsInf(d, 0) || d < churnDetect {
					r.fail("churn %v: event %d reaction %v", m.mode, i, d)
				}
			}
		}

		// Every flow must finish before the horizon, once its path is
		// restored, and no sooner than its transfer at line rate after
		// its arrival plus the time it spent stalled.
		r.Attempted += len(m.conns)
		if len(res) != len(m.conns) {
			r.fail("churn %v: %d results for %d flows", m.mode, len(res), len(m.conns))
			r.Failed += len(m.conns) - 1
			continue
		}
		for i, fr := range res {
			c := m.conns[i]
			min := c.Arrival + fr.StallTime + (c.Bits-simResolution)/topo.DefaultLinkCapacity
			if !(fr.Finish < churnHorizon) || !(fr.Finish >= min*(1-1e-9)) {
				r.fail("churn %v: flow %d (arrival %v, %v Gbit, stalled %v s) finished at %v", m.mode, i, c.Arrival, c.Bits, fr.StallTime, fr.Finish)
			}
		}
	}
	return nil
}

// replay compiles the mode's trace and replays the plan's topology events
// over its flows, as experiments.Config.Churn does for one mode.
func (m *churnMode) replay(tr *tracer) (*churn.Plan, []flowsim.ConnResult, error) {
	delay := control.TestbedDelayModel()
	delay.Parallel = true
	eng := &churn.Engine{Topo: m.t, K: churnK, Detection: churnDetect, Delay: delay}
	t0 := tr.start()
	plan, err := eng.Compile(m.trace, m.conns)
	tr.stop("churn.compile_s", t0)
	if err != nil {
		return nil, nil, fmt.Errorf("churn %v: %w", m.mode, err)
	}

	sim := flowsim.NewSim(routing.DirectedCaps(m.t.G), plan.Specs)
	sim.Schedule(plan.Events)
	sim.Horizon = churnHorizon
	t0 = tr.start()
	res, err := sim.Run()
	tr.stop("flowsim.run_s", t0)
	if err != nil {
		return nil, nil, fmt.Errorf("churn %v replay: %w", m.mode, err)
	}
	return plan, res, nil
}
