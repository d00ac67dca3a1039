// Command perfbench is the repository benchmark. It runs one named
// workload from a seed, checks every output it produces, and prints the
// metrics, ending with one JSON line:
//
//	perfbench --workload lp_bounds --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// all tracing off. With --trace 1 the same call sequence runs again with
// the benchmark's own timers around each call into a layer and the
// telemetry registry enabled, and the JSON carries the per-layer table.
// README.md lists the workloads, the layers each loads and bypasses, and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed     = flag.Int64("seed", 1, "seed every workload input is drawn from")
		seconds  = flag.Float64("seconds", 25, "measurement budget in seconds (set-up excluded)")
		trace    = flag.Int("trace", 0, "1 = report the per-layer table instead of end-to-end metrics")
		flatd    = flag.String("flatd", ".bench_build/bin/flatd", "flatd binary flatd_mix starts")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		flatd:  *flatd,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printResult(*workload, cfg, res)
}

// config is what every workload receives from the command line.
type config struct {
	seed   int64
	budget time.Duration
	trace  bool
	flatd  string
}

var workloads = map[string]func(config) (*result, error){
	"lp_bounds": func(c config) (*result, error) {
		return runInProc(&lpBounds{seed: c.seed}, c.budget, c.trace)
	},
	"fbmix_stream": func(c config) (*result, error) {
		return runInProc(&fbmixStream{seed: c.seed, flows: fbmixFlows}, c.budget, c.trace)
	},
	"churn_replay": func(c config) (*result, error) {
		return runInProc(&churnReplay{seed: c.seed, flows: churnFlows}, c.budget, c.trace)
	},
	"flatd_mix": runFlatdMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes the human-readable report, then the JSON line.
func printResult(name string, cfg config, r *result) {
	fmt.Printf("workload %s  seed %d  trace %v\n", name, cfg.seed, cfg.trace)
	for _, m := range r.Report {
		fmt.Printf("  %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	if cfg.trace {
		fmt.Println("  -- layer table (per pass; flatd_mix: per replayed sequence) --")
	}
	for _, m := range r.Metrics {
		fmt.Printf("  %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]value{},
	}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
