package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flattree/internal/control"
	"flattree/internal/core"
	"flattree/internal/routing"
	"flattree/internal/telemetry"
	"flattree/internal/topo"
)

// flatd_mix drives the real cmd/flatd (reduced topo-1, Clos, k=8) on an
// ephemeral loopback port with a seeded open-loop mix: arrivals of each
// request class are a Poisson process (a fixed count at uniformly drawn
// times), sent on schedule over at most runtime.NumCPU() keep-alive
// connections, each request timed from when it was due.
const (
	flatdTopo = "mini-1"
	flatdK    = 8

	// Offered rates per second of schedule.
	routesRate   = 16.0
	quoteRate    = 0.48 // 12 in a 25 s run: each quote vector once
	linkPairRate = 2.4  // candidate fail/repair pairs; each pair is two events
	junkRate     = 1.0

	// Quotes draw from quoteVectorCount fixed vectors.
	quoteVectorCount = 12
	quoteVectorSeed  = 1

	// A failed adjacency is repaired after linkHoldMin plus up to
	// linkHoldSpan seconds; at most maxDown adjacencies are down at once,
	// far fewer than it takes to cut a server off, so every /routes answer
	// must be reachable.
	linkHoldMin  = 0.2
	linkHoldSpan = 0.4
	maxDown      = 3

	// lateLimit invalidates a run whose generator woke up too late to
	// send on schedule.
	lateLimit = 20 * time.Millisecond
)

type reqClass int

const (
	classRoutes reqClass = iota
	classQuote
	classFail
	classRepair
	classJunk
	nClasses
)

var classNames = [nClasses]string{"routes", "quote", "link_fail", "link_repair", "junk"}

// request is one scheduled call with the status it must be answered with.
type request struct {
	due    time.Duration
	class  reqClass
	method string
	path   string
	body   []byte
	want   int

	src, dst int         // routes
	modes    []core.Mode // quote
	a, b     int         // link events
	pair     int         // link events: the fail/repair pair index
}

// mixInputs is what the generator knows about the daemon's network,
// computed offline the way flatd builds it.
type mixInputs struct {
	nw       *core.Network
	t        *topo.Topology
	fp       string
	servers  []int
	adjs     [][2]int // switch-switch adjacencies, ascending
	switches []int
}

func newMixInputs() (*mixInputs, error) {
	nw, err := flatTree(flatdTopo)
	if err != nil {
		return nil, err
	}
	nw.SetMode(core.ModeClos)
	t := nw.Realize().Topo
	in := &mixInputs{nw: nw, t: t, fp: t.Fingerprint(), servers: t.Servers()}
	seen := map[[2]int]bool{}
	for _, l := range t.G.Links() {
		if t.Nodes[l.A].Kind == topo.Server || t.Nodes[l.B].Kind == topo.Server {
			continue
		}
		k := [2]int{l.A, l.B}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if !seen[k] {
			seen[k] = true
			in.adjs = append(in.adjs, k)
		}
	}
	sort.Slice(in.adjs, func(i, j int) bool {
		if in.adjs[i][0] != in.adjs[j][0] {
			return in.adjs[i][0] < in.adjs[j][0]
		}
		return in.adjs[i][1] < in.adjs[j][1]
	})
	for id, n := range t.Nodes {
		if n.Kind != topo.Server {
			in.switches = append(in.switches, id)
		}
	}
	return in, nil
}

// poissonTimes draws a Poisson process of the given rate over [0, span)
// conditioned on its expected count: that many uniform times, sorted.
func poissonTimes(rng *rand.Rand, rate, span float64) []float64 {
	n := int(math.Round(rate * span))
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = rng.Float64() * span
	}
	sort.Float64s(ts)
	return ts
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// buildSchedule draws the request sequence for span seconds from seed.
// The same seed and span always give the same sequence.
func buildSchedule(in *mixInputs, seed int64, span float64) []request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	for _, at := range poissonTimes(rng, routesRate, span) {
		src := in.servers[rng.Intn(len(in.servers))]
		dst := src
		for dst == src {
			dst = in.servers[rng.Intn(len(in.servers))]
		}
		reqs = append(reqs, request{due: secs(at), class: classRoutes, method: http.MethodGet,
			path: fmt.Sprintf("/routes?src=%d&dst=%d", src, dst), want: http.StatusOK, src: src, dst: dst})
	}
	// Every vector is asked for equally often, in seeded order, so the
	// conversions priced do not depend on the seed.
	vectors := quoteVectors(len(in.nw.PodModes()))
	var order []int
	for _, at := range poissonTimes(rng, quoteRate, span) {
		if len(order) == 0 {
			order = rng.Perm(len(vectors))
		}
		modes := vectors[order[0]]
		order = order[1:]
		body, _ := json.Marshal(map[string][]string{"modes": modeNames(modes)})
		reqs = append(reqs, request{due: secs(at), class: classQuote, method: http.MethodPost,
			path: "/quote/convert", body: body, want: http.StatusOK, modes: modes})
	}

	// Link events: candidate failures arrive as a Poisson process; one is
	// kept when its adjacency is up and fewer than maxDown are down for
	// its whole hold.
	type interval struct {
		from, to float64
		adj      [2]int
	}
	var held []interval
	pair := 0
	for _, at := range poissonTimes(rng, linkPairRate, span) {
		adj := in.adjs[rng.Intn(len(in.adjs))]
		until := at + linkHoldMin + linkHoldSpan*rng.Float64()
		down := 0
		clash := false
		for _, h := range held {
			if h.to > at && h.from < until {
				down++
				clash = clash || h.adj == adj
			}
		}
		if clash || down >= maxDown {
			continue
		}
		held = append(held, interval{at, until, adj})
		for _, ev := range []struct {
			at     float64
			class  reqClass
			action string
		}{{at, classFail, "fail"}, {until, classRepair, "repair"}} {
			body, _ := json.Marshal(map[string]interface{}{"action": ev.action, "a": adj[0], "b": adj[1]})
			reqs = append(reqs, request{due: secs(ev.at), class: ev.class, method: http.MethodPost,
				path: "/events/link", body: body, want: http.StatusOK, a: adj[0], b: adj[1], pair: pair})
		}
		pair++
	}

	// Malformed requests, each with the 4xx it must get.
	for _, at := range poissonTimes(rng, junkRate, span) {
		rq := request{due: secs(at), class: classJunk, method: http.MethodGet, want: http.StatusBadRequest}
		sw := in.switches[rng.Intn(len(in.switches))]
		srv := in.servers[rng.Intn(len(in.servers))]
		switch rng.Intn(6) {
		case 0: // a switch is not a server
			rq.path = fmt.Sprintf("/routes?src=%d&dst=%d", sw, srv)
		case 1:
			rq.path = fmt.Sprintf("/routes?src=%d", srv)
		case 2:
			rq.method, rq.path = http.MethodPost, "/events/link"
			rq.body = []byte(fmt.Sprintf(`{"action":"flap","a":%d,"b":%d}`, in.adjs[0][0], in.adjs[0][1]))
		case 3:
			rq.method, rq.path = http.MethodPost, "/quote/convert"
			rq.body = []byte(`{"modes":["clos","sideways"]}`)
		case 4:
			rq.path, rq.want = "/no/such/endpoint", http.StatusNotFound
		case 5: // a server pair shares no link
			rq.method, rq.path, rq.want = http.MethodPost, "/events/link", http.StatusUnprocessableEntity
			rq.body = []byte(fmt.Sprintf(`{"action":"fail","a":%d,"b":%d}`, in.servers[0], in.servers[len(in.servers)-1]))
		}
		reqs = append(reqs, rq)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// quoteVectors is the fixed set of per-pod mode vectors quotes ask for.
// It does not depend on the run's seed, and it is small enough that
// vectors repeat within a run.
func quoteVectors(pods int) [][]core.Mode {
	modeSet := []core.Mode{core.ModeClos, core.ModeLocal, core.ModeGlobal}
	rng := rand.New(rand.NewSource(quoteVectorSeed))
	out := make([][]core.Mode, quoteVectorCount)
	for v := range out {
		out[v] = make([]core.Mode, pods)
		for i := range out[v] {
			out[v][i] = modeSet[rng.Intn(len(modeSet))]
		}
	}
	return out
}

func modeNames(modes []core.Mode) []string {
	out := make([]string, len(modes))
	for i, m := range modes {
		out[i] = m.String()
	}
	return out
}

// Response bodies, as far as the checks read them.
type (
	routesBody struct {
		Src       int  `json:"src"`
		Dst       int  `json:"dst"`
		Reachable bool `json:"reachable"`
		Paths     []struct {
			Nodes []int `json:"nodes"`
		} `json:"paths"`
	}
	switchDelta struct {
		Switch int `json:"switch"`
		Dels   int `json:"dels,omitempty"`
		Adds   int `json:"adds,omitempty"`
	}
	quoteBody struct {
		From                   []string      `json:"from"`
		To                     []string      `json:"to"`
		ConvertersReconfigured int           `json:"converters_reconfigured"`
		RulesDeleted           int           `json:"rules_deleted"`
		RulesAdded             int           `json:"rules_added"`
		OCSSeconds             float64       `json:"ocs_seconds"`
		DeleteSeconds          float64       `json:"delete_seconds"`
		AddSeconds             float64       `json:"add_seconds"`
		TotalSeconds           float64       `json:"total_seconds"`
		RampSeconds            float64       `json:"ramp_seconds"`
		RuleDelta              []switchDelta `json:"rule_delta"`
	}
	linkBody struct {
		Action string `json:"action"`
		A      int    `json:"a"`
		B      int    `json:"b"`
		Link   int    `json:"link"`
	}
	topologyBody struct {
		Fingerprint string   `json:"fingerprint"`
		PodModes    []string `json:"pod_modes"`
		FailedLinks []struct {
			Link int `json:"link"`
		} `json:"failed_links"`
	}
)

// offlineQuote renders control.QuotePodModes as the /quote/convert body
// it must equal.
func offlineQuote(q *control.Quote) quoteBody {
	sws := map[int]bool{}
	for sw := range q.Delta.Adds {
		sws[sw] = true
	}
	for sw := range q.Delta.Dels {
		sws[sw] = true
	}
	delta := make([]switchDelta, 0, len(sws))
	for sw := range sws {
		delta = append(delta, switchDelta{Switch: sw, Dels: q.Delta.Dels[sw], Adds: q.Delta.Adds[sw]})
	}
	sort.Slice(delta, func(i, j int) bool { return delta[i].Switch < delta[j].Switch })
	rep := q.Report
	return quoteBody{
		From: modeNames(rep.From), To: modeNames(rep.To),
		ConvertersReconfigured: rep.ConvertersReconfigured,
		RulesDeleted:           rep.RulesDeleted, RulesAdded: rep.RulesAdded,
		OCSSeconds: rep.OCSTime, DeleteSeconds: rep.DeleteTime, AddSeconds: rep.AddTime,
		TotalSeconds: rep.Total, RampSeconds: rep.RampTime, RuleDelta: delta,
	}
}

// outcome is one answered request.
type outcome struct {
	latency time.Duration
	err     error
	link    int // link events: the link the daemon acted on
}

// mixRun is one open-loop pass of a schedule against a daemon.
type mixRun struct {
	out  []outcome
	late []float64 // generator wake-up lateness, seconds
}

// drive sends reqs to base on schedule over conns connections and checks
// every answer. A repair waits until its failure has been answered, so the
// pair reaches the daemon in order even when it is backlogged.
func drive(client *http.Client, base string, reqs []request, conns int) *mixRun {
	run := &mixRun{out: make([]outcome, len(reqs))}
	pairs := 0
	for _, rq := range reqs {
		if rq.class == classFail {
			pairs++
		}
	}
	failed := make([]chan struct{}, pairs)
	failLink := make([]int, pairs)
	for i := range failed {
		failed[i] = make(chan struct{})
	}

	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				rq := &reqs[i]
				if rq.class == classRepair {
					<-failed[rq.pair]
				}
				o := &run.out[i]
				status, body, err := call(client, base, rq)
				o.latency = time.Since(start.Add(rq.due))
				if err == nil {
					o.link, err = checkAnswer(rq, status, body)
				}
				o.err = err
				switch rq.class {
				case classFail:
					failLink[rq.pair] = o.link
					close(failed[rq.pair])
				case classRepair:
					if err == nil && o.link != failLink[rq.pair] {
						o.err = fmt.Errorf("repair of %d-%d restored link %d, failed link %d", rq.a, rq.b, o.link, failLink[rq.pair])
					}
				}
			}
		}()
	}
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			run.late = append(run.late, time.Since(due).Seconds())
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return run
}

func call(client *http.Client, base string, rq *request) (int, []byte, error) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequest(rq.method, base+rq.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// checkAnswer checks one answer against its request and returns the link a
// link event acted on.
func checkAnswer(rq *request, status int, body []byte) (int, error) {
	if status != rq.want {
		return 0, fmt.Errorf("%s %s: status %d, want %d", rq.method, rq.path, status, rq.want)
	}
	switch rq.class {
	case classRoutes:
		var rb routesBody
		if err := json.Unmarshal(body, &rb); err != nil {
			return 0, fmt.Errorf("%s: %v", rq.path, err)
		}
		if !rb.Reachable || len(rb.Paths) == 0 || rb.Src != rq.src || rb.Dst != rq.dst {
			return 0, fmt.Errorf("%s: unreachable or mislabelled answer", rq.path)
		}
		for _, p := range rb.Paths {
			if len(p.Nodes) < 2 || p.Nodes[0] != rq.src || p.Nodes[len(p.Nodes)-1] != rq.dst {
				return 0, fmt.Errorf("%s: path %v does not join the requested servers", rq.path, p.Nodes)
			}
		}
	case classQuote:
		var qb quoteBody
		if err := json.Unmarshal(body, &qb); err != nil {
			return 0, fmt.Errorf("quote: %v", err)
		}
		if !reflect.DeepEqual(qb.To, modeNames(rq.modes)) || len(qb.From) != len(rq.modes) {
			return 0, fmt.Errorf("quote %v: answered from %v to %v", modeNames(rq.modes), qb.From, qb.To)
		}
	case classFail, classRepair:
		var lb linkBody
		if err := json.Unmarshal(body, &lb); err != nil {
			return 0, fmt.Errorf("link event: %v", err)
		}
		if lb.A != rq.a || lb.B != rq.b || (lb.Action == "fail") != (rq.class == classFail) {
			return 0, fmt.Errorf("link event %s: answered %+v", rq.body, lb)
		}
		return lb.Link, nil
	}
	return 0, nil
}

// daemon is one running flatd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr chan struct{} // closed once stderr is drained
}

// startFlatd boots flatd on an ephemeral port and waits for the first
// 200 from /healthz, returning the boot time.
func startFlatd(bin string, client *http.Client) (*daemon, float64, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-topo", flatdTopo, "-mode", "clos", "-k", strconv.Itoa(flatdK))
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start flatd: %w", err)
	}
	d := &daemon{cmd: cmd, stderr: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stderr)
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " on http://"); i >= 0 {
				select {
				case addr <- line[i+len(" on "):]:
				default:
				}
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.stderr:
		d.stop()
		return nil, 0, errors.New("flatd exited before announcing its address")
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, 0, errors.New("flatd did not announce its address within 60s")
	}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("flatd not healthy within 60s (last error %v)", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the daemon to drain and exit, and waits until it has. Its
// stderr reaches end of file when it exits; Wait must come after that.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	select {
	case <-d.stderr:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.stderr
	}
	return d.cmd.Wait()
}

func (d *daemon) get(client *http.Client, path string) ([]byte, error) {
	resp, err := client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// classLatencies groups answered latencies (ms) by class.
func classLatencies(reqs []request, run *mixRun) [nClasses][]float64 {
	var by [nClasses][]float64
	for i, o := range run.out {
		by[reqs[i].class] = append(by[reqs[i].class], o.latency.Seconds()*1000)
	}
	return by
}

func runFlatdMix(c config) (*result, error) {
	in, err := newMixInputs()
	if err != nil {
		return nil, err
	}
	reqs := buildSchedule(in, c.seed, c.budget.Seconds())
	if c.trace {
		// The traced run sends the first third of the same schedule, then
		// replays it in-process twice (untimed and timed). Failures and
		// repairs are numbered in time order, so a kept repair's failure
		// is kept too.
		cut := c.budget / 3
		n := sort.Search(len(reqs), func(i int) bool { return reqs[i].due >= cut })
		reqs = reqs[:n]
	}
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	// Boot the daemon like the in-process set-ups repeat theirs; the last
	// one serves the mix.
	var boots []float64
	var d *daemon
	for {
		var boot float64
		d, boot, err = startFlatd(c.flatd, client)
		if err != nil {
			return nil, err
		}
		boots = append(boots, boot)
		if len(boots) >= setupRunsMin && (sum(boots) >= setupBudget.Seconds() || len(boots) >= setupRunsMax) {
			break
		}
		client.CloseIdleConnections()
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("flatd boot %d: %w", len(boots), err)
		}
	}
	running := true
	defer func() {
		if running {
			d.stop()
		}
	}()

	r := &result{}
	pid := d.cmd.Process.Pid
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	run := drive(client, d.base, reqs, conns)
	cpu1, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	r.Attempted = len(reqs) + 1
	ledger := map[int]bool{}
	for i, o := range run.out {
		if o.err != nil {
			r.fail("%v", o.err)
			continue
		}
		switch reqs[i].class {
		case classFail:
			ledger[o.link] = true
		case classRepair:
			delete(ledger, o.link)
		}
	}
	// The final state must match the generator's own fail/repair ledger.
	var topoBody topologyBody
	body, err := d.get(client, "/topology")
	if err == nil {
		err = json.Unmarshal(body, &topoBody)
	}
	if err != nil {
		r.fail("final /topology: %v", err)
	} else {
		got := map[int]bool{}
		for _, fl := range topoBody.FailedLinks {
			got[fl.Link] = true
		}
		if topoBody.Fingerprint != in.fp || !reflect.DeepEqual(got, ledger) {
			r.fail("final /topology: fingerprint %s failed %v, want %s failed %v", topoBody.Fingerprint, got, in.fp, ledger)
		}
	}
	metricsBody, err := d.get(client, "/metrics")
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(pid))
	if err != nil {
		return nil, err
	}
	client.CloseIdleConnections()
	running = false
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("flatd shutdown: %w", err)
	}

	by := classLatencies(reqs, run)
	for _, cl := range servedClasses {
		if len(by[cl]) == 0 {
			return nil, fmt.Errorf("schedule sent no %s requests in %v", classNames[cl], c.budget)
		}
	}
	latP99 := quantile(run.late, 0.99) * 1000
	if latP99 > float64(lateLimit/time.Millisecond) {
		r.fail("generator fell behind: wake-up lateness p99 %.1f ms", latP99)
	}
	links := append(append([]float64(nil), by[classFail]...), by[classRepair]...)
	for cl := reqClass(0); cl < nClasses; cl++ {
		r.note(classNames[cl]+"_requests", "count", float64(len(by[cl])))
	}
	r.note("connections", "count", float64(conns))
	r.note("routes_p50_ms", "ms", quantile(by[classRoutes], 0.5))
	r.note("routes_p99_ms", "ms", quantile(by[classRoutes], 0.99))
	r.note("quote_p50_ms", "ms", quantile(by[classQuote], 0.5))
	r.note("quote_p90_ms", "ms", quantile(by[classQuote], 0.9))
	r.note("link_event_p50_ms", "ms", quantile(links, 0.5))
	r.note("link_event_p90_ms", "ms", quantile(links, 0.9))
	r.note("link_fail_p50_ms", "ms", quantile(by[classFail], 0.5))
	r.note("link_repair_p50_ms", "ms", quantile(by[classRepair], 0.5))
	r.note("bench.late_p99_ms", "ms", latP99)
	r.note("peak_rss_mb", "MB", rss)

	if !c.trace {
		r.add("setup_s", "s", quantile(boots, 0.5))
		r.add("op_p50_ms", "ms", classMedianGeoMean(by))
		r.add("cpu_ms_per_op", "ms", (cpu1-cpu0)/float64(len(reqs))*1000)
		return r, nil
	}

	// Per-layer numbers: replay the same sequence in-process against the
	// layer functions flatd's handlers call, once untimed and once timed.
	plain, err := replayMix(in, reqs, newTracer(false), nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(true)
	layerMs := map[reqClass][]float64{}
	reg := telemetry.Enable()
	traced, err := replayMix(in, reqs, tr, layerMs)
	telemetry.Disable()
	if err != nil {
		return nil, err
	}
	vals := counterTotals(reg.Snapshot())
	attributed := 0.0
	for k, v := range tr.secs {
		vals[k] = v
		attributed += v
	}
	linkLayer := append(append([]float64(nil), layerMs[classFail]...), layerMs[classRepair]...)
	vals["service.overhead_routes_ms"] = quantile(by[classRoutes], 0.5) - quantile(layerMs[classRoutes], 0.5)
	vals["service.overhead_quote_ms"] = quantile(by[classQuote], 0.5) - quantile(layerMs[classQuote], 0.5)
	vals["service.overhead_link_ms"] = quantile(links, 0.5) - quantile(linkLayer, 0.5)
	vals["service.metrics_series"] = float64(metricSeries(metricsBody))
	vals["bench.late_p99_ms"] = latP99
	vals["unattributed_s"] = traced - attributed
	vals["trace_overhead_s"] = traced - plain
	r.note("replay_wall_s", "s", traced)
	layerResult(r, vals)
	return r, nil
}

// servedClasses are the request classes that reach a layer.
var servedClasses = []reqClass{classRoutes, classQuote, classFail, classRepair}

// classMedianGeoMean is flatd_mix's op_p50_ms: the geometric mean of the
// median latencies (ms) of routes, quotes and link events, where the link
// events' median is the geometric mean of the fail and repair medians.
// Each class weighs the same, so a change in quote or link-event latency
// moves it as much as one in /routes, though routes are most of the
// requests. Fail and repair medians are kept apart because the two sit
// at different levels, and one median over both would jump between them.
func classMedianGeoMean(by [nClasses][]float64) float64 {
	logMed := func(cl reqClass) float64 { return math.Log(quantile(by[cl], 0.5)) }
	link := (logMed(classFail) + logMed(classRepair)) / 2
	return math.Exp((logMed(classRoutes) + logMed(classQuote) + link) / 3)
}

// metricSeries counts the sample lines of a Prometheus exposition.
func metricSeries(body []byte) int {
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// replayMix runs the schedule's layer calls in order, in-process, on a
// fresh copy of the daemon's state: Table.ServerPaths for routes,
// control.QuotePodModes for quotes, IncrementalTable.FailBetween and
// RepairBetween for link events. Malformed requests never reach a layer.
// It returns the replay's wall time; a tracer that is on also records
// each call's latency per class in layerMs.
func replayMix(in *mixInputs, reqs []request, tr *tracer, layerMs map[reqClass][]float64) (float64, error) {
	start := time.Now()
	t0 := tr.start()
	table := routing.BuildKShortest(in.t, flatdK)
	tr.stop("routing.build_s", t0)
	inc := routing.NewIncremental(table)
	nw := in.nw.Clone()
	delay := control.TestbedDelayModel()
	delay.Parallel = true
	kByMode := map[core.Mode]int{core.ModeClos: flatdK, core.ModeLocal: flatdK, core.ModeGlobal: flatdK}
	layers := [nClasses]string{"routing.lookup_s", "control.quote_s", "routing.fail_s", "routing.repair_s", ""}
	for i := range reqs {
		rq := &reqs[i]
		if rq.class == classJunk {
			continue
		}
		t0 := tr.start()
		var err error
		switch rq.class {
		case classRoutes:
			paths := inc.View().ServerPaths(rq.src, rq.dst)
			if len(paths) == 0 {
				err = fmt.Errorf("replay: no route %d->%d", rq.src, rq.dst)
			}
		case classQuote:
			_, err = control.QuotePodModes(nw.Clone(), delay, kByMode, rq.modes)
		case classFail:
			_, _, err = inc.FailBetween(rq.a, rq.b)
		case classRepair:
			_, _, err = inc.RepairBetween(rq.a, rq.b)
		}
		if tr.on {
			d := time.Since(t0).Seconds()
			tr.secs[layers[rq.class]] += d
			layerMs[rq.class] = append(layerMs[rq.class], d*1000)
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}
