package flowsim

import (
	"math"
	"strings"
	"testing"
)

// The seed core silently accepted NaN and negative capacities — NaN
// remaining/weight quotients then propagated NaN rates and FCTs through
// every downstream table. These regressions pin the descriptive errors
// the core now returns instead.

func oneFlow() []ConnSpec {
	return []ConnSpec{{Paths: [][]int{{0}}, Bits: 1}}
}

func TestRunRejectsBadCaps(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -1, math.Inf(-1)} {
		_, err := NewSim([]float64{10, bad}, oneFlow()).Run()
		if err == nil || !strings.Contains(err.Error(), "link 1 has capacity") {
			t.Fatalf("caps[1]=%v: want capacity error, got %v", bad, err)
		}
	}
	if _, err := NewSim([]float64{10, 10}, oneFlow()).Run(); err != nil {
		t.Fatalf("valid caps rejected: %v", err)
	}
}

func TestSetCapsRejectsBadValues(t *testing.T) {
	for _, bad := range []float64{math.NaN(), -2} {
		s := NewSim([]float64{10}, []ConnSpec{{Paths: [][]int{{0}}, Bits: 100}})
		s.Schedule([]TopoEvent{{Time: 0.5, SetCaps: map[int]float64{0: bad}}})
		_, err := s.Run()
		if err == nil || !strings.Contains(err.Error(), "sets link 0 capacity") {
			t.Fatalf("SetCaps=%v: want capacity error, got %v", bad, err)
		}
	}
	// Zero stays legal: it is how link failures blackhole a direction.
	s := NewSim([]float64{10, 10}, []ConnSpec{{Paths: [][]int{{0}, {1}}, Bits: 5}})
	s.Schedule([]TopoEvent{{Time: 0.1, SetCaps: map[int]float64{0: 0}}})
	if _, err := s.Run(); err != nil {
		t.Fatalf("SetCaps=0 rejected: %v", err)
	}
}

func TestMaxMinRatesRejectsBadCaps(t *testing.T) {
	subs := []Subflow{{Conn: 0, Links: []int{0}, Weight: 1}}
	for _, bad := range []float64{math.NaN(), -1} {
		if _, err := MaxMinRates([]float64{bad}, subs); err == nil {
			t.Fatalf("caps[0]=%v accepted", bad)
		}
	}
	if _, err := MaxMinRates([]float64{math.NaN()}, nil); err != nil {
		t.Fatalf("empty subflow set must not validate caps it never reads: %v", err)
	}
}

func TestStaticRatesRejectsBadCaps(t *testing.T) {
	if _, err := StaticRates([]float64{-5}, oneFlow(), 0); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

func TestRunRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name string
		spec ConnSpec
		want string
	}{
		{"nan bits", ConnSpec{Paths: [][]int{{0}}, Bits: math.NaN()}, "has size"},
		{"nan weight", ConnSpec{Paths: [][]int{{0}}, Bits: 1, Weight: math.NaN()}, "has weight"},
		{"negative weight", ConnSpec{Paths: [][]int{{0}}, Bits: 1, Weight: -1}, "has weight"},
		{"nan arrival", ConnSpec{Paths: [][]int{{0}}, Bits: 1, Arrival: math.NaN()}, "has arrival"},
		{"inf arrival", ConnSpec{Paths: [][]int{{0}}, Bits: 1, Arrival: math.Inf(1)}, "has arrival"},
		{"negative arrival", ConnSpec{Paths: [][]int{{0}}, Bits: 10, Arrival: -1}, "has arrival"},
	}
	for _, tc := range cases {
		_, err := NewSim([]float64{10}, []ConnSpec{tc.spec}).Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: want %q error, got %v", tc.name, tc.want, err)
		}
	}
}

func TestMaxMinRatesRejectsNaNWeight(t *testing.T) {
	_, err := MaxMinRates([]float64{10}, []Subflow{{Links: []int{0}, Weight: math.NaN()}})
	if err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("NaN subflow weight: got %v", err)
	}
}
