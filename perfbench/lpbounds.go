package main

import (
	"math"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/flowsim"
	"flattree/internal/mcf"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// lpBounds is one Figure 6 panel: the reduced flat-tree in global mode
// under the permutation and many-to-many patterns, priced by LP minimum
// (mcf.MaxConcurrent), LP average (mcf.MaxTotal) and 8-way MPTCP
// (routing.BuildKShortest k=8, then flowsim.StaticRates) at a fixed ε.
// Set-up is the network build with §3.4 profiling; a pass builds the
// route table and solves every cell, one after another.
type lpBounds struct {
	seed int64

	t        *topo.Topology
	nServers int
	perPod   int
}

const (
	lpTopo    = "mini-2"
	lpEpsilon = 0.35
	lpPaths   = 8
)

var (
	lpPatterns = []traffic.SyntheticPattern{traffic.PatternPermutation, traffic.PatternManyToMany}
	lpMethods  = []experiments.Method{experiments.LPMin, experiments.LPAvg, experiments.MPTCP8}
)

// lpCell is one (pattern, method) cell: the flows' average throughput.
type lpCell struct {
	Pattern traffic.SyntheticPattern
	Method  experiments.Method
	RawAvg  float64
}

func (w *lpBounds) setup() error {
	nw, err := flatTree(lpTopo)
	if err != nil {
		return err
	}
	nw.SetMode(core.ModeGlobal)
	w.t = nw.Realize().Topo
	cp := nw.Clos()
	w.nServers = cp.TotalServers()
	w.perPod = cp.EdgesPerPod * cp.ServersPerEdge
	return nil
}

func (w *lpBounds) pass(tr *tracer, r *result) error {
	_, err := w.cells(tr, r)
	return err
}

// cells computes the panel and checks every cell: per-flow rates finite
// and positive (LP average may starve a flow, so it needs only finite and
// non-negative), and the 8-way MPTCP average within the LP-average bound
// at ε.
func (w *lpBounds) cells(tr *tracer, r *result) ([]lpCell, error) {
	t0 := tr.start()
	table := routing.BuildKShortest(w.t, lpPaths)
	tr.stop("routing.build_s", t0)
	caps := routing.DirectedCaps(w.t.G)
	servers := w.t.Servers()
	opt := mcf.Options{Epsilon: lpEpsilon}

	var out []lpCell
	for _, pat := range lpPatterns {
		t0 = tr.start()
		pairs := traffic.Synthetic(pat, w.nServers, w.perPod, w.seed)
		tr.stop("traffic.next_s", t0)
		comms := make([]mcf.Commodity, len(pairs))
		specs := make([]flowsim.ConnSpec, len(pairs))
		for i, p := range pairs {
			comms[i] = mcf.Commodity{Src: servers[p.Src], Dst: servers[p.Dst], Demand: 1}
			paths := table.ServerPaths(servers[p.Src], servers[p.Dst])
			if len(paths) > lpPaths {
				paths = paths[:lpPaths]
			}
			dp := make([][]int, len(paths))
			for j, path := range paths {
				dp[j] = routing.DirectedLinkIDs(w.t.G, path)
			}
			specs[i] = flowsim.ConnSpec{Paths: dp, Bits: math.Inf(1)}
		}

		t0 = tr.start()
		lmin, err := mcf.MaxConcurrent(w.t.G, comms, opt)
		tr.stop("mcf.concurrent_s", t0)
		if err != nil {
			return nil, err
		}
		t0 = tr.start()
		lavg, err := mcf.MaxTotal(w.t.G, comms, opt)
		tr.stop("mcf.total_s", t0)
		if err != nil {
			return nil, err
		}
		t0 = tr.start()
		mptcp, err := flowsim.StaticRates(caps, specs, topo.DefaultLinkCapacity)
		tr.stop("flowsim.static_s", t0)
		if err != nil {
			return nil, err
		}

		r.Attempted += len(lpMethods)
		checkRates(r, pat, experiments.LPMin, lmin.PerFlow, false)
		checkRates(r, pat, experiments.LPAvg, lavg.PerFlow, true)
		if checkRates(r, pat, experiments.MPTCP8, mptcp, false) {
			// GK's packing guarantee: the true optimum is at most the
			// returned value over (1-ε)^3, and MPTCP's max-min rates are
			// one feasible flow.
			if bound := mean(lavg.PerFlow) / math.Pow(1-lpEpsilon, 3); mean(mptcp) > bound {
				r.fail("%v: 8-way MPTCP average %v above the LP-average bound %v", pat, mean(mptcp), bound)
			}
		}
		out = append(out,
			lpCell{pat, experiments.LPMin, mean(lmin.PerFlow)},
			lpCell{pat, experiments.LPAvg, mean(lavg.PerFlow)},
			lpCell{pat, experiments.MPTCP8, mean(mptcp)})
	}
	return out, nil
}

// checkRates fails the cell unless every rate is finite and positive
// (non-negative when zeroOK); it reports whether the cell passed.
func checkRates(r *result, pat traffic.SyntheticPattern, m experiments.Method, rates []float64, zeroOK bool) bool {
	for i, x := range rates {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 || (x == 0 && !zeroOK) {
			r.fail("%v %v: flow %d rate %v", pat, m, i, x)
			return false
		}
	}
	if len(rates) == 0 {
		r.fail("%v %v: no flows", pat, m)
		return false
	}
	return true
}
