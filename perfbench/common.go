package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flattree/internal/core"
	"flattree/internal/experiments"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// metric is one named, unit-tagged number of a run's report.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// result is one workload run: the operations attempted and failed, the
// first few check failures, the metrics the JSON line carries, and extra
// lines printed for people only.
type result struct {
	Attempted, Failed int
	Problems          []string
	Metrics           []metric
	Report            []metric
}

// fail counts a failed operation and keeps its reason (the first few).
func (r *result) fail(format string, args ...interface{}) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{name, unit, v})
}

func (r *result) note(name, unit string, v float64) {
	r.Report = append(r.Report, metric{name, unit, v})
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified). An empty
// sample reads 0, like a layer the workload never called.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// peakRSSMB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// cpuSeconds returns the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// procCPUSeconds reads another process's user plus system CPU time from
// /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ticks := 0.0
	for _, f := range fields[11:13] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// flatTree builds a reduced-scale flat-tree network exactly as the
// experiments and flatd do (§3.4 (n, m) profiling with the same source
// stride, then core.New), but without their process-wide profile cache, so
// every call pays the full cold set-up cost.
func flatTree(name string) (*core.Network, error) {
	for _, p := range experiments.MiniTable2() {
		if p.Name != name {
			continue
		}
		return core.New(p, profiledOptions(p))
	}
	return nil, fmt.Errorf("unknown reduced topology %q", name)
}

func profiledOptions(p topo.ClosParams) core.Options {
	opt := core.Options{N: 1, M: 1, Pattern: core.Pattern1}
	stride := p.TotalServers() / 128
	if stride < 1 {
		stride = 1
	}
	if best, _, err := core.ProfileMN(p, core.Pattern1, stride); err == nil {
		opt = core.Options{N: best.N, M: best.M, Pattern: core.Pattern1}
	}
	return opt
}

// tracer times calls into the layers' public functions from outside and
// sums them per layer metric. A disabled tracer reads no clock.
type tracer struct {
	on   bool
	secs map[string]float64
	peak map[string]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, secs: map[string]float64{}, peak: map[string]float64{}}
}

// max records a high-water mark for a per-layer count.
func (t *tracer) max(name string, v float64) {
	if t.on && v > t.peak[name] {
		t.peak[name] = v
	}
}

func (t *tracer) start() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) stop(layer string, t0 time.Time) {
	if t.on {
		t.secs[layer] += time.Since(t0).Seconds()
	}
}

// counterSources maps per-layer count metrics to the telemetry counters the
// program already exports (summed over labels).
var counterSources = []struct{ metric, counter string }{
	{"mcf.dijkstras", "mcf_dijkstras_total"},
	{"mcf.phases", "mcf_phases_total"},
	{"graph.yen_pairs", "graph_yen_pairs_total"},
	{"routing.dirty_pairs", "routing_dirty_pairs_total"},
	{"flowsim.events", "flowsim_events_total"},
	{"flowsim.alloc_rounds", "flowsim_alloc_rounds_total"},
	{"flowsim.reroutes", "flowsim_reroutes_total"},
}

// counterTotals sums each counter of counterSources across its label sets.
func counterTotals(snap *telemetry.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for key, v := range snap.Counters {
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		for _, cs := range counterSources {
			if cs.counter == name {
				out[cs.metric] += float64(v)
			}
		}
	}
	return out
}

// layerMetrics lists every per-layer metric in the order the layer table
// prints them. Each workload reports all of them; a layer it bypasses
// reads zero.
var layerMetrics = []struct{ name, unit string }{
	{"routing.build_s", "s"},
	{"mcf.concurrent_s", "s"},
	{"mcf.total_s", "s"},
	{"mcf.dijkstras", "count"},
	{"mcf.phases", "count"},
	{"flowsim.static_s", "s"},
	{"traffic.next_s", "s"},
	{"routing.ecmp_lookup_s", "s"},
	{"flowsim.stream_self_s", "s"},
	{"flowsim.events", "count"},
	{"flowsim.alloc_rounds", "count"},
	{"flowsim.peak_active_flows", "count"},
	{"churn.compile_s", "s"},
	{"routing.dirty_pairs", "count"},
	{"graph.yen_pairs", "count"},
	{"flowsim.run_s", "s"},
	{"flowsim.reroutes", "count"},
	{"routing.lookup_s", "s"},
	{"control.quote_s", "s"},
	{"routing.fail_s", "s"},
	{"routing.repair_s", "s"},
	{"service.overhead_routes_ms", "ms"},
	{"service.overhead_quote_ms", "ms"},
	{"service.overhead_link_ms", "ms"},
	{"service.metrics_series", "count"},
	{"bench.late_p99_ms", "ms"},
	{"unattributed_s", "s"},
	{"trace_overhead_s", "s"},
}

// timedLayer reports whether a per-layer metric is a time the tracer
// measures (and so counts against unattributed_s).
func timedLayer(name string) bool {
	return strings.HasSuffix(name, "_s") && name != "unattributed_s" && name != "trace_overhead_s"
}

// layerResult fills r.Metrics with every per-layer metric from vals,
// zero where the workload left a layer untouched.
func layerResult(r *result, vals map[string]float64) {
	for _, lm := range layerMetrics {
		r.add(lm.name, lm.unit, vals[lm.name])
	}
}
