package flowsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxMinSingleLink(t *testing.T) {
	caps := []float64{10}
	subs := []Subflow{
		{Conn: 0, Links: []int{0}, Weight: 1},
		{Conn: 1, Links: []int{0}, Weight: 1},
	}
	rates, err := MaxMinRates(caps, subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		if math.Abs(r-5) > 1e-9 {
			t.Fatalf("rate[%d] = %v, want 5", i, r)
		}
	}
}

func TestMaxMinWeighted(t *testing.T) {
	caps := []float64{12}
	subs := []Subflow{
		{Conn: 0, Links: []int{0}, Weight: 2},
		{Conn: 1, Links: []int{0}, Weight: 1},
	}
	rates, err := MaxMinRates(caps, subs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-8) > 1e-9 || math.Abs(rates[1]-4) > 1e-9 {
		t.Fatalf("rates = %v, want [8 4]", rates)
	}
}

func TestMaxMinTwoBottlenecks(t *testing.T) {
	// Classic: flow A on link0(cap 1), flow B on link0+link1(cap 10),
	// flow C on link1. A=B=0.5 at link0; C fills link1 to 9.5.
	caps := []float64{1, 10}
	subs := []Subflow{
		{Conn: 0, Links: []int{0}, Weight: 1},
		{Conn: 1, Links: []int{0, 1}, Weight: 1},
		{Conn: 2, Links: []int{1}, Weight: 1},
	}
	rates, err := MaxMinRates(caps, subs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.5, 9.5}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("rates = %v, want %v", rates, want)
		}
	}
}

func TestMaxMinMPTCPSubflows(t *testing.T) {
	// One MPTCP connection with 2 disjoint paths of cap 10 each gets 20;
	// a competing single-path TCP on one of them shares by weight: MPTCP
	// subflow weight 0.5 vs TCP weight 1 => TCP gets 2/3 of that link.
	caps := []float64{10, 10}
	subs := []Subflow{
		{Conn: 0, Links: []int{0}, Weight: 0.5},
		{Conn: 0, Links: []int{1}, Weight: 0.5},
		{Conn: 1, Links: []int{0}, Weight: 1},
	}
	rates, err := MaxMinRates(caps, subs)
	if err != nil {
		t.Fatal(err)
	}
	conn := ConnRates(2, subs, rates, 10)
	if math.Abs(rates[2]-10*2.0/3.0) > 1e-9 {
		t.Fatalf("TCP rate = %v, want 6.67", rates[2])
	}
	if math.Abs(conn[0]-(10.0/3.0+10)) > 1e-9 {
		t.Fatalf("MPTCP rate = %v, want 13.33", conn[0])
	}
}

func TestMaxMinValidation(t *testing.T) {
	if _, err := MaxMinRates([]float64{1}, []Subflow{{Links: []int{0}, Weight: 0}}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := MaxMinRates([]float64{1}, []Subflow{{Links: []int{5}, Weight: 1}}); err == nil {
		t.Fatal("out-of-range link accepted")
	}
}

func TestMaxMinWorkConserving(t *testing.T) {
	// Property: no link is overloaded, and every subflow is bottlenecked
	// (its rate cannot grow without violating some link).
	f := func(seed int64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		nLinks := 2 + next(6)
		caps := make([]float64, nLinks)
		for i := range caps {
			caps[i] = float64(1 + next(10))
		}
		nSubs := 1 + next(8)
		subs := make([]Subflow, nSubs)
		for i := range subs {
			pl := 1 + next(3)
			if pl > nLinks {
				pl = nLinks
			}
			links := map[int]bool{}
			for len(links) < pl {
				links[next(nLinks)] = true
			}
			var ll []int
			for l := range links {
				ll = append(ll, l)
			}
			subs[i] = Subflow{Conn: i, Links: ll, Weight: float64(1+next(3)) / 2}
		}
		rates, err := MaxMinRates(caps, subs)
		if err != nil {
			return false
		}
		load := make([]float64, nLinks)
		for i, s := range subs {
			for _, l := range s.Links {
				load[l] += rates[i]
			}
		}
		for l := range caps {
			if load[l] > caps[l]+1e-6 {
				return false
			}
		}
		// Bottleneck property: each subflow crosses some saturated link.
		for i, s := range subs {
			saturated := false
			for _, l := range s.Links {
				if load[l] >= caps[l]-1e-6 {
					saturated = true
					break
				}
			}
			if !saturated && rates[i] > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSimSingleFlowFCT(t *testing.T) {
	caps := []float64{10}
	specs := []ConnSpec{{Paths: [][]int{{0}}, Bits: 100, Arrival: 0}}
	res, err := NewSim(caps, specs).Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].FCT()-10) > 1e-9 {
		t.Fatalf("FCT = %v, want 10", res[0].FCT())
	}
}

func TestSimSequentialSharing(t *testing.T) {
	// Two equal flows share a link: both take twice as long as alone,
	// but the first to arrive finishes earlier.
	caps := []float64{10}
	specs := []ConnSpec{
		{Paths: [][]int{{0}}, Bits: 100, Arrival: 0},
		{Paths: [][]int{{0}}, Bits: 100, Arrival: 5},
	}
	res, err := NewSim(caps, specs).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Flow 0: 50 bits alone (5s), then shares: 50 left at 5 Gbps => +10s
	// ... flow 0 finishes at 15 minus the boost after flow1 could finish.
	// Compute exactly: t in [0,5): f0 rate 10, sends 50. t in [5,15):
	// both at 5; at t=15 f0 has sent 50+50=100 -> done. f1 has sent 50;
	// then alone at 10 => +5s => done at 20.
	if math.Abs(res[0].Finish-15) > 1e-6 {
		t.Fatalf("flow0 finish = %v, want 15", res[0].Finish)
	}
	if math.Abs(res[1].Finish-20) > 1e-6 {
		t.Fatalf("flow1 finish = %v, want 20", res[1].Finish)
	}
}

func TestSimPersistentAndHorizon(t *testing.T) {
	caps := []float64{10}
	specs := []ConnSpec{
		{Paths: [][]int{{0}}, Bits: math.Inf(1), Arrival: 0},
		{Paths: [][]int{{0}}, Bits: 25, Arrival: 0},
	}
	res, err := NewSim(caps, specs).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res[0].Finish, 1) {
		t.Fatal("persistent flow completed")
	}
	// Finite flow: shares at 5 until done: 25/5 = 5s.
	if math.Abs(res[1].Finish-5) > 1e-6 {
		t.Fatalf("finite flow finish = %v, want 5", res[1].Finish)
	}
}

func TestSimHorizonStops(t *testing.T) {
	caps := []float64{1}
	specs := []ConnSpec{{Paths: [][]int{{0}}, Bits: 1000, Arrival: 0}}
	s := NewSim(caps, specs)
	s.Horizon = 5
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res[0].Finish, 1) {
		t.Fatal("flow completed despite horizon")
	}
}

func TestSimLoopbackPath(t *testing.T) {
	// Same-host connections use an empty link list and the LocalRate.
	caps := []float64{10}
	specs := []ConnSpec{{Paths: [][]int{{}}, Bits: 100, Arrival: 0}}
	s := NewSim(caps, specs)
	s.LocalRate = 50
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].FCT()-2) > 1e-9 {
		t.Fatalf("loopback FCT = %v, want 2", res[0].FCT())
	}
}

func TestSimStarvationError(t *testing.T) {
	// A connection whose only path crosses a zero-capacity link starves.
	caps := []float64{0}
	specs := []ConnSpec{{Paths: [][]int{{0}}, Bits: 10, Arrival: 0}}
	if _, err := NewSim(caps, specs).Run(); err == nil {
		t.Fatal("starved simulation did not error")
	}
}

func TestSimValidation(t *testing.T) {
	if _, err := NewSim([]float64{1}, []ConnSpec{{Paths: nil, Bits: 1}}).Run(); err == nil {
		t.Fatal("pathless conn accepted")
	}
	if _, err := NewSim([]float64{1}, []ConnSpec{{Paths: [][]int{{0}}, Bits: 0}}).Run(); err == nil {
		t.Fatal("zero-size conn accepted")
	}
}

func TestStaticRates(t *testing.T) {
	caps := []float64{10, 10}
	specs := []ConnSpec{
		{Paths: [][]int{{0}, {1}}, Bits: 1, Weight: 1}, // MPTCP, 2 paths
		{Paths: [][]int{{0}}, Bits: 1},                 // TCP on link 0
	}
	rates, err := StaticRates(caps, specs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rates[0]-(10.0/3.0+10)) > 1e-9 || math.Abs(rates[1]-20.0/3.0) > 1e-9 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestSimConservation(t *testing.T) {
	// Property: total bits delivered equals sum of flow sizes (all flows
	// complete), and FCTs are at least size/capacity.
	f := func(seed int64) bool {
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		caps := []float64{10, 10, 10}
		var specs []ConnSpec
		nf := 2 + next(6)
		for i := 0; i < nf; i++ {
			specs = append(specs, ConnSpec{
				Paths:   [][]int{{next(3)}},
				Bits:    float64(10 + next(100)),
				Arrival: float64(next(10)),
			})
		}
		res, err := NewSim(caps, specs).Run()
		if err != nil {
			return false
		}
		for i, r := range res {
			if math.IsInf(r.Finish, 1) {
				return false
			}
			if r.FCT() < specs[i].Bits/10-1e-6 {
				return false // faster than line rate
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
