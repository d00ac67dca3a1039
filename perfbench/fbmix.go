package main

import (
	"fmt"
	"math"
	"time"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/flowsim"
	"flattree/internal/routing"
	"flattree/internal/topo"
	"flattree/internal/traffic"
)

// fbmixStream replays the four Facebook traces of §5.2 back to back
// through flowsim.Sim.RunStream with ECMP single-path TCP on the reduced
// flat-tree in Clos mode: the composition of experiments.FBMix, at
// fbmixFlows flows per trace. Set-up is the network build with profiling
// and the k=4 route table; a pass streams every trace once.
type fbmixStream struct {
	seed  int64
	flows int

	t       *topo.Topology
	table   *routing.Table
	caps    []float64
	servers []int
	clos    topo.ClosParams
}

// fbmixFlows is the per-trace flow count of one pass.
const fbmixFlows = 50_000

// simResolution is flowsim's completion resolution in Gbit: every event
// loop retires a flow at the event where at most this much remains.
const simResolution = 1e-6

// The offered load and size scale of experiments.FBMix: a fixed arrival
// rate keeps the number of flows in flight bounded as traces grow.
const (
	fbmixArrivalRate = 20_000.0
	fbmixSizeScale   = 0.25
)

func (w *fbmixStream) setup() error {
	nw, err := flatTree("mini-1")
	if err != nil {
		return err
	}
	nw.SetMode(core.ModeClos)
	w.t = nw.Realize().Topo
	w.table = routing.BuildKShortest(w.t, 4)
	w.caps = routing.DirectedCaps(w.t.G)
	w.servers = w.t.Servers()
	w.clos = nw.Clos()
	return nil
}

func (w *fbmixStream) pass(tr *tracer, r *result) error {
	_, err := w.rows(tr, r)
	return err
}

// rows streams every trace and returns one experiments.FBMixRow each. It
// checks that every planned flow completes and that none finishes faster
// than its transfer at line rate.
func (w *fbmixStream) rows(tr *tracer, r *result) ([]experiments.FBMixRow, error) {
	duration := float64(w.flows) / fbmixArrivalRate
	var out []experiments.FBMixRow
	for _, name := range experiments.FBMixWorkloads() {
		t0 := tr.start()
		next, planned, err := w.stream(name, duration)
		tr.stop("traffic.next_s", t0)
		if err != nil {
			return nil, err
		}

		// Callback time is measured from inside the callbacks so the
		// simulator's own share (stream_self) can be taken apart from the
		// trace generator's and the ECMP lookups'.
		var nextS, lookupS, callbackS float64
		pulled, retired, peak := 0, 0, 0
		fi := 0
		pull := func() (flowsim.ConnSpec, bool) {
			var c0, c1, c2 time.Time
			if tr.on {
				c0 = time.Now()
			}
			f, ok := next()
			if tr.on {
				c1 = time.Now()
				nextS += c1.Sub(c0).Seconds()
			}
			if !ok {
				if tr.on {
					callbackS += c1.Sub(c0).Seconds()
				}
				return flowsim.ConnSpec{}, false
			}
			p, ok := w.table.ECMPServerPath(w.servers[f.Src], w.servers[f.Dst], routing.FlowHash(f.Src, f.Dst, fi))
			fi++
			spec := flowsim.ConnSpec{Bits: f.Bits, Arrival: f.Arrival}
			if ok {
				spec.Paths = [][]int{routing.DirectedLinkIDs(w.t.G, p)}
			}
			pulled++
			if pulled-retired > peak {
				peak = pulled - retired
			}
			if tr.on {
				c2 = time.Now()
				lookupS += c2.Sub(c1).Seconds()
				callbackS += c2.Sub(c0).Seconds()
			}
			return spec, true
		}

		var hist fctHist
		unfinished := 0
		sink := func(id int, res flowsim.ConnResult) {
			var c0 time.Time
			if tr.on {
				c0 = time.Now()
			}
			retired++
			if math.IsInf(res.Finish, 1) {
				unfinished++
			} else {
				fct := res.FCT()
				// Flows retire once at most simResolution Gbit remains, so
				// the fastest legal finish sends the rest at line rate.
				if min := (res.Bits - simResolution) / topo.DefaultLinkCapacity; !(fct >= min*(1-1e-9)) {
					r.fail("fbmix %s flow %d: FCT %v below its line-rate transfer time %v", name, id, fct, min)
				}
				hist.add(fct)
			}
			if tr.on {
				callbackS += time.Since(c0).Seconds()
			}
		}

		t0 = tr.start()
		sim := flowsim.NewSim(w.caps, nil)
		err = sim.RunStream(pull, sink)
		if tr.on {
			tr.stop("flowsim.stream_self_s", t0)
			tr.secs["flowsim.stream_self_s"] -= callbackS
			tr.secs["traffic.next_s"] += nextS
			tr.secs["routing.ecmp_lookup_s"] += lookupS
		}
		tr.max("flowsim.peak_active_flows", float64(peak))
		if err != nil {
			return nil, fmt.Errorf("fbmix %s: %w", name, err)
		}

		r.Attempted += planned
		if missing := planned - int(hist.n); missing > 0 {
			r.fail("fbmix %s: %d of %d planned flows did not complete (%d unfinished)", name, missing, planned, unfinished)
			r.Failed += missing - 1
		}
		out = append(out, experiments.FBMixRow{
			Workload:   name,
			Flows:      planned,
			Completed:  int(hist.n),
			Unfinished: unfinished,
			MeanMs:     hist.mean() * 1000,
			P50Ms:      hist.quantile(0.5) * 1000,
			P99Ms:      hist.quantile(0.99) * 1000,
		})
	}
	return out, nil
}

// stream opens one trace's generator as experiments.FBMix does, returning
// its pull function and the number of flows it will yield.
func (w *fbmixStream) stream(name string, duration float64) (func() (traffic.Flow, bool), int, error) {
	perRack, racksPerPod := w.clos.ServersPerEdge, w.clos.EdgesPerPod
	if name == "hadoop-1" {
		// hadoop-1's coflow expansion emits 8 server flows per transfer.
		coflows := w.flows / 8
		if coflows < 1 {
			coflows = 1
		}
		st := traffic.NewHadoop1Stream(len(w.servers), perRack, coflows, fbmixSizeScale*traffic.MB, duration, w.seed+11)
		return st.Next, st.Len(), nil
	}
	spec, err := traffic.FacebookSpec(name, len(w.servers), perRack, racksPerPod, w.flows, w.seed+13)
	if err != nil {
		return nil, 0, err
	}
	spec.Duration = duration
	spec.SizeMedianGbit *= fbmixSizeScale
	st, err := traffic.NewStream(spec)
	if err != nil {
		return nil, 0, err
	}
	return st.Next, st.Len(), nil
}

// fctHist is experiments.FBMix's completion-time histogram: 1024
// log-spaced buckets from 100 ns to 1000 s, an exact mean, and quantiles
// read as the geometric midpoint of a bucket.
type fctHist struct {
	counts [fctBuckets]int64
	n      int64
	sum    float64
}

const (
	fctBuckets = 1024
	fctFloor   = 1e-7
	fctDecades = 10
)

func (h *fctHist) add(fct float64) {
	h.n++
	h.sum += fct
	idx := 0
	if fct > fctFloor {
		idx = int(math.Log10(fct/fctFloor) * fctBuckets / fctDecades)
		if idx < 0 {
			idx = 0
		}
		if idx >= fctBuckets {
			idx = fctBuckets - 1
		}
	}
	h.counts[idx]++
}

func (h *fctHist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

func (h *fctHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	cum := int64(0)
	for idx, c := range h.counts {
		cum += c
		if cum > rank {
			return fctFloor * math.Pow(10, (float64(idx)+0.5)*fctDecades/fctBuckets)
		}
	}
	return fctFloor * math.Pow(10, fctDecades)
}
