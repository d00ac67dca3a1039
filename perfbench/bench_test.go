package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"flattree/internal/churn"
	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/flowsim"
	"flattree/internal/metrics"
	"flattree/internal/routing"
	"flattree/internal/service"
	"flattree/internal/telemetry"
	"flattree/internal/traffic"
)

// The benchmark composes layer calls itself; these tests pin each
// composition to the code the figures run.

func TestFlatTreeMatchesExperimentsNetwork(t *testing.T) {
	for _, name := range []string{"mini-1", "mini-2"} {
		got, err := flatTree(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := experiments.Config{}.Network(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.Options() != want.Options() || got.Realize().Topo.Fingerprint() != want.Realize().Topo.Fingerprint() {
			t.Errorf("%s: benchmark network %+v differs from the experiments' %+v", name, got.Options(), want.Options())
		}
	}
}

func TestLPBoundsCellsEqualFig6(t *testing.T) {
	const seed = 7
	w := &lpBounds{seed: seed}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	r := &result{}
	cells, err := w.cells(newTracer(false), r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 || r.Attempted != len(lpPatterns)*len(lpMethods) {
		t.Fatalf("checks: %d of %d failed: %v", r.Failed, r.Attempted, r.Problems)
	}
	fig, err := experiments.Config{Seed: seed, Epsilon: lpEpsilon}.Fig6With(
		[]experiments.Fig6Case{{Topology: lpTopo, Mode: core.ModeGlobal}}, lpMethods, lpPatterns)
	if err != nil {
		t.Fatal(err)
	}
	var want []lpCell
	for _, c := range fig.Panels[0].Cells {
		want = append(want, lpCell{c.Pattern, c.Method, c.RawAvg})
	}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("lp_bounds cells\n got %v\nwant %v (experiments.Fig6With)", cells, want)
	}
}

func TestFBMixRowsEqualExperiment(t *testing.T) {
	const seed, flows = 5, 2000
	w := &fbmixStream{seed: seed, flows: flows}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	r := &result{}
	rows, err := w.rows(newTracer(false), r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed != 0 {
		t.Fatalf("checks: %d of %d failed: %v", r.Failed, r.Attempted, r.Problems)
	}
	want, err := experiments.Config{Seed: seed, FBMixFlows: flows}.FBMix()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("fbmix_stream rows\n got %+v\nwant %+v (experiments.FBMix)", rows, want)
	}
}

// TestChurnReplayEqualsExperiment feeds the churn experiment's inputs
// (its permutation flows and failure trace) through churn_replay's compile
// and replay, and requires the experiment's rows: the plan's reactions and
// every flow's result must be what experiments.Config.Churn computes.
func TestChurnReplayEqualsExperiment(t *testing.T) {
	const seed = 4
	want, err := experiments.Config{Seed: seed}.Churn()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := flatTree("mini-1")
	if err != nil {
		t.Fatal(err)
	}
	for i, mode := range []core.Mode{core.ModeClos, core.ModeGlobal} {
		nw.SetMode(mode)
		m := churnMode{mode: mode, t: nw.Realize().Topo}
		servers := m.t.Servers()
		for _, pr := range traffic.Permutation(len(servers), seed) {
			m.conns = append(m.conns, churn.Conn{Src: servers[pr.Src], Dst: servers[pr.Dst], Bits: 20})
		}
		if m.trace, err = churn.GenerateTraceChecked(m.t, 6, 1.0, 0.5, seed+31); err != nil {
			t.Fatal(err)
		}
		plan, res, err := m.replay(newTracer(false))
		if err != nil {
			t.Fatal(err)
		}
		base, err := flowsim.NewSim(routing.DirectedCaps(m.t.G), plan.Specs).Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := churnRow(mode, plan, base, res); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("churn %v\n got %+v\nwant %+v (experiments.Churn)", mode, got, want[i])
		}
	}
}

// churnRow summarises a replay the way experiments.Config.Churn does.
func churnRow(mode core.Mode, plan *churn.Plan, base, res []flowsim.ConnResult) experiments.ChurnRow {
	row := experiments.ChurnRow{Mode: mode}
	var baseFCT, churnFCT, stalls []float64
	for i, r := range base {
		baseFCT = append(baseFCT, r.Finish-plan.Specs[i].Arrival)
	}
	for i, r := range res {
		row.Reroutes += r.Reroutes
		if r.StallTime > 0 {
			row.Stalled++
			stalls = append(stalls, r.StallTime)
		}
		if math.IsInf(r.Finish, 1) {
			row.Unfinished++
			continue
		}
		churnFCT = append(churnFCT, r.Finish-plan.Specs[i].Arrival)
	}
	row.BaselineMeanFCT = metrics.Mean(baseFCT)
	row.BaselineP99FCT = metrics.Percentile(baseFCT, 0.99)
	row.ChurnMeanFCT = metrics.Mean(churnFCT)
	row.ChurnP99FCT = metrics.Percentile(churnFCT, 0.99)
	if len(stalls) > 0 {
		row.MeanStall = metrics.Mean(stalls)
	}
	row.MeanReaction = metrics.Mean(plan.Reactions)
	return row
}

// daemonUnderTest serves flatd's handler in-process on the benchmark's
// network.
func daemonUnderTest(t *testing.T) (*httptest.Server, *core.Network) {
	t.Helper()
	nw, err := experiments.Config{}.Network(flatdTopo)
	if err != nil {
		t.Fatal(err)
	}
	nw.SetMode(core.ModeClos)
	srv, err := service.New(service.Config{Network: nw.Clone(), K: flatdK, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, nw
}

func TestQuoteBodiesEqualOffline(t *testing.T) {
	ts, nw := daemonUnderTest(t)
	in, err := newMixInputs()
	if err != nil {
		t.Fatal(err)
	}
	delay := control.TestbedDelayModel()
	delay.Parallel = true
	kByMode := map[core.Mode]int{core.ModeClos: flatdK, core.ModeLocal: flatdK, core.ModeGlobal: flatdK}
	quotes := 0
	for _, rq := range buildSchedule(in, 11, 2) {
		if rq.class != classQuote {
			continue
		}
		quotes++
		status, body, err := call(ts.Client(), ts.URL, &rq)
		if err != nil || status != http.StatusOK {
			t.Fatalf("quote %v: status %d, %v", rq.modes, status, err)
		}
		var got quoteBody
		if _, err := checkAnswer(&rq, status, body); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		q, err := control.QuotePodModes(nw.Clone(), delay, kByMode, rq.modes)
		if err != nil {
			t.Fatal(err)
		}
		if want := offlineQuote(q); !reflect.DeepEqual(got, want) {
			t.Errorf("quote %v\n got %+v\nwant %+v (control.QuotePodModes)", rq.modes, got, want)
		}
	}
	if quotes == 0 {
		t.Fatal("schedule drew no quotes")
	}
}

func TestMixRunsCleanAgainstDaemon(t *testing.T) {
	ts, _ := daemonUnderTest(t)
	in, err := newMixInputs()
	if err != nil {
		t.Fatal(err)
	}
	reqs := buildSchedule(in, 3, 3)
	if !reflect.DeepEqual(reqs, buildSchedule(in, 3, 3)) {
		t.Fatal("schedule is not a function of its seed")
	}
	seen := map[reqClass]int{}
	for _, rq := range reqs {
		seen[rq.class]++
	}
	for cl := reqClass(0); cl < nClasses; cl++ {
		if seen[cl] == 0 {
			t.Errorf("schedule has no %s requests", classNames[cl])
		}
	}
	run := drive(ts.Client(), ts.URL, reqs, 2)
	for i, o := range run.out {
		if o.err != nil {
			t.Errorf("request %d (%s): %v", i, classNames[reqs[i].class], o.err)
		}
	}
	if _, err := replayMix(in, reqs, newTracer(true), map[reqClass][]float64{}); err != nil {
		t.Fatal(err)
	}
}

// TestColdRunsRepeatCounts runs each in-process workload's traced run
// twice at one seed from a cold start and requires identical layer counts.
func TestColdRunsRepeatCounts(t *testing.T) {
	counts := []string{"mcf.dijkstras", "mcf.phases", "graph.yen_pairs", "routing.dirty_pairs",
		"flowsim.events", "flowsim.alloc_rounds", "flowsim.reroutes", "flowsim.peak_active_flows"}
	cases := []struct {
		name     string
		make     func() inproc
		nonzero  []string
		bypassed []string
	}{
		{"lp_bounds", func() inproc { return &lpBounds{seed: 3} },
			[]string{"mcf.dijkstras", "graph.yen_pairs"}, []string{"routing.dirty_pairs", "flowsim.events"}},
		{"fbmix_stream", func() inproc { return &fbmixStream{seed: 3, flows: 4000} },
			[]string{"flowsim.events", "flowsim.peak_active_flows"}, []string{"mcf.dijkstras", "mcf.phases", "graph.yen_pairs"}},
		{"churn_replay", func() inproc { return &churnReplay{seed: 3, flows: 2000} },
			[]string{"routing.dirty_pairs", "flowsim.events", "flowsim.reroutes"}, []string{"mcf.dijkstras"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				routing.PurgeCache()
				r, err := runInProc(tc.make(), time.Nanosecond, true)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 {
					t.Fatalf("checks: %d of %d failed: %v", r.Failed, r.Attempted, r.Problems)
				}
				runs[i] = map[string]float64{}
				for _, m := range r.Metrics {
					runs[i][m.Name] = m.Value
				}
			}
			for _, c := range counts {
				if runs[0][c] != runs[1][c] {
					t.Errorf("%s: %v then %v", c, runs[0][c], runs[1][c])
				}
			}
			for _, c := range tc.nonzero {
				if runs[0][c] == 0 {
					t.Errorf("%s reads zero", c)
				}
			}
			for _, c := range tc.bypassed {
				if runs[0][c] != 0 {
					t.Errorf("bypassed layer count %s reads %v", c, runs[0][c])
				}
			}
		})
	}
}
