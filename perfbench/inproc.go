package main

import (
	"fmt"
	"runtime"
	"time"

	"flattree/internal/routing"
	"flattree/internal/telemetry"
)

// inproc is a workload that runs inside the benchmark process: a cold
// set-up, then passes over one fixed unit of work, each checked.
type inproc interface {
	// setup builds the workload's inputs from scratch.
	setup() error
	// pass runs the timed unit of work once, times its layer calls on tr,
	// and counts its checked operations on r.
	pass(tr *tracer, r *result) error
}

const (
	// A run repeats its set-up at least setupRunsMin times and until
	// setupBudget is spent (at most setupRunsMax times); setup_s is the
	// median.
	setupRunsMin = 7
	setupRunsMax = 400
	setupBudget  = 2 * time.Second
	// minPasses bounds a run from below when one pass outlasts the budget.
	minPasses = 2
)

// runInProc sets the workload up repeatedly from a cold start, then
// repeats passes until the time budget is spent. Untraced, it reports the
// end-to-end metrics. Traced, it alternates an untraced pass with a
// traced one (layer timers on, telemetry registry enabled for that pass
// only) and reports the per-layer table, per pass.
func runInProc(w inproc, budget time.Duration, trace bool) (*result, error) {
	r := &result{}
	var setups []float64
	for len(setups) < setupRunsMin || (sum(setups) < setupBudget.Seconds() && len(setups) < setupRunsMax) {
		routing.PurgeCache()
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// Each pass starts from a collected heap, so passes see the same
	// garbage-collector state and the peak resident set repeats.
	var cpu []float64
	timedPass := func(tr *tracer) (float64, error) {
		runtime.GC()
		c0 := cpuSeconds()
		t0 := time.Now()
		err := w.pass(tr, r)
		wall := time.Since(t0).Seconds()
		if !tr.on {
			cpu = append(cpu, cpuSeconds()-c0)
		}
		return wall, err
	}

	off := newTracer(false)
	var plain, traced []float64
	tr := newTracer(true)
	counts := map[string]float64{}
	// A pass starts only if one more (or one more pair, traced) still fits
	// in the budget.
	start := time.Now()
	last := time.Duration(0)
	for len(plain) < minPasses || time.Since(start)+last <= budget {
		t0 := time.Now()
		wall, err := timedPass(off)
		if err != nil {
			return nil, err
		}
		plain = append(plain, wall)
		if !trace {
			last = time.Since(t0)
			continue
		}
		reg := telemetry.Enable()
		wall, err = timedPass(tr)
		telemetry.Disable()
		if err != nil {
			return nil, err
		}
		traced = append(traced, wall)
		for k, v := range counterTotals(reg.Snapshot()) {
			counts[k] += v
		}
		last = time.Since(t0)
	}
	r.note("passes", "count", float64(len(plain)))
	r.note("wall_s", "s", quantile(plain, 0.5))

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	r.note("peak_rss_mb", "MB", rss)
	if !trace {
		r.add("setup_s", "s", quantile(setups, 0.5))
		r.add("op_p50_ms", "ms", quantile(plain, 0.5)*1000)
		r.add("cpu_ms_per_op", "ms", quantile(cpu, 0.5)*1000)
		return r, nil
	}

	n := float64(len(traced))
	vals := map[string]float64{}
	for k, v := range tr.secs {
		vals[k] = v / n
	}
	for k, v := range counts {
		vals[k] = v / n
	}
	for k, v := range tr.peak {
		vals[k] = v
	}
	attributed := 0.0
	for _, lm := range layerMetrics {
		if timedLayer(lm.name) {
			attributed += vals[lm.name]
		}
	}
	vals["unattributed_s"] = mean(traced) - attributed
	vals["trace_overhead_s"] = mean(traced) - mean(plain)
	r.note("traced_wall_s", "s", mean(traced))
	layerResult(r, vals)
	return r, nil
}
