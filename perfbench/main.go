// Command perfbench is the serving benchmark of the anytime Bayes tree
// service. It prefills a model, serves it in-process over loopback
// HTTP, drives one of two open-loop workloads against it from a
// separate load process, checks that every answer is correct, and
// prints its metrics. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s,
// read_p50_ms, write_p50_ms, cpu_us_per_req, accuracy, heap_mb; the
// p99s, the sustained rate and the error rate are printed above the
// result line); with -trace 1 a separate traced run reports the per-layer
// ones. See README.md in this directory. Build and run it through
// run.sh from the repository root:
//
//	bash perfbench/run.sh --workload serve-read --seed 1 --seconds 40 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds per-run durability directories; cache the prefilled
	// models.
	dir, cache string
	rev        string
	// prefill is the model size; pool the points drawn beyond it, of
	// which holdout are reads and the rest the write stream.
	prefill, pool, holdout int
	// sweep are the model sizes of the per-layer size sweep.
	sweep []int
	// gate is the number of requests the correctness gate checks.
	gate int
	// setups is how many times set-up is timed (median reported).
	setups int
	// floors enables the answer-quality floors (off only in shrunken
	// test configurations, whose tiny models sit near chance).
	floors bool
}

func defaultConfig() config {
	return config{
		prefill: 100000, pool: 60000, holdout: 5000,
		sweep: []int{1000, 10000, 100000},
		gate:  100, setups: 7, floors: true,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line. Printed holds the figures
// printed beside the metrics but left out of the result line: the tail
// latencies and the sustained rate (their spread between runs on a
// small shared machine is wider than any bound a regression gate could
// use, see README.md) and the error rate (0 in every correct run;
// failures are in Failed).
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Printed   map[string]metric `json:"-"`
}

// minQualityAnswers is the fewest answers the accuracy floor is judged
// on.
const minQualityAnswers = 50

// accuracyFloor is the lowest accuracy a correct run may show. For
// classification it is well below what the served model reaches
// (≈0.75) and well above what a degenerate answer scores (0.33, the
// largest class's share: one class for every point). For clustering
// the score is an adjusted Rand index: the served model reaches ≈0.034
// (its macro clusters split the 7 classes into ≈100 clusters), and a
// degenerate answer — one cluster for all points, one per point, or
// clusters unrelated to the classes — scores ≈0.
func accuracyFloor(cluster bool) float64 {
	if cluster {
		return 0.015
	}
	return 0.6
}

// runChild runs this process as the benchmark's load process or a
// set-up process when its environment asks for one, and reports
// whether it did; a child that fails exits with status 1.
func runChild() bool {
	var role string
	var child func() error
	switch {
	case os.Getenv(loadEnv) != "":
		role, child = "load", loadChild
	case os.Getenv(setupEnv) != "":
		role, child = "setup", setupChild
	default:
		return false
	}
	if err := child(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", role, err)
		os.Exit(1)
	}
	return true
}

func main() {
	if runChild() {
		return
	}
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve-read|cluster-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "traffic seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured load time of the run, seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/runs", "directory for per-run durability directories")
	flag.StringVar(&cfg.cache, "cache", ".bench_build/models", "directory of the cached prefilled models")
	flag.StringVar(&cfg.rev, "rev", "unknown", "source revision recorded with the run")
	flag.Parse()
	if flag.NArg() > 0 || cfg.workload == "" || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run, writing human-readable progress and
// metric lines to out. An error means the run could not be made at all;
// wrong answers come back as a report with Correct false.
func run(cfg config, out io.Writer) (*report, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	nproc := runtime.NumCPU()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s rev=%s\n",
		wl.name, cfg.seed, cfg.seconds, cfg.trace, nproc, runtime.GOMAXPROCS(0), runtime.Version(), cfg.rev)

	d, err := makeData(cfg.prefill, cfg.pool, cfg.holdout, cfg.seed)
	if err != nil {
		return nil, err
	}
	cache := &modelCache{dir: cfg.cache, d: d}
	t0 := time.Now()
	classGolden, err := cache.classModel()
	if err != nil {
		return nil, err
	}
	golden := classGolden
	if wl.cluster {
		if golden, err = cache.clusterModel(); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(out, "# models ready in %v\n", time.Since(t0).Round(time.Millisecond))

	runDir := filepath.Join(cfg.dir, fmt.Sprintf("%s-%d-%d", wl.name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	client := newClient(nproc)
	defer client.CloseIdleConnections()

	// The live heap before the served instance exists: the benchmark's
	// inputs and client. heap_mb is what the served instance adds.
	heapBase := liveHeapMB()

	// Set-up is timed cfg.setups times in untraced runs, each in a
	// fresh process on a fresh copy: half before the measured phases
	// and the rest after them, so a slow spell of the machine moves a
	// minority of the samples. The instance that serves the run runs in
	// this process.
	var setups []float64
	timeSetups := func(n int) error {
		for i := 0; i < n; i++ {
			took, err := timeSetup(golden, filepath.Join(runDir, "setup"), wl.cluster, client)
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, took.Seconds())
		}
		return nil
	}
	if !cfg.trace {
		if err := timeSetups(cfg.setups / 2); err != nil {
			return nil, err
		}
	}
	in, err := startInstance(golden, filepath.Join(runDir, "model"), wl.cluster, client)
	if err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			in.stop()
		}
	}()

	e := &env{wl: wl, d: d, in: in, client: client, nproc: nproc,
		dataCfg: dataConfig{Prefill: cfg.prefill, Pool: cfg.pool, Holdout: cfg.holdout, Seed: cfg.seed}}
	base := in.observations()
	rep := &report{Correct: true, Metrics: map[string]metric{}, Printed: map[string]metric{}}
	var problems []error
	fail := func(err error) {
		rep.Correct = false
		problems = append(problems, err)
		fmt.Fprintln(out, "# FAIL:", err)
	}

	if wl.cluster {
		n, err := clusterGate(client, in.base, golden, e, cfg.gate)
		rep.Attempted += n
		e.acked += n
		if err != nil {
			fail(err)
		}
	} else {
		ref, err := decodeTrees(golden)
		if err != nil {
			return nil, err
		}
		rep.Attempted += cfg.gate
		if err := classGate(client, in.base, in.class, ref, d, cfg.gate); err != nil {
			fail(err)
		}
	}

	stopMaintenance := func() {}
	if wl.cluster {
		stopMaintenance = sync.OnceFunc(maintain(in.cluster))
		defer stopMaintenance()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	total := time.Duration(cfg.seconds * float64(time.Second))
	var sums []summary
	var layers *layerMetrics
	var fig figures // of the fixed-rate phase, or the traced one
	if cfg.trace {
		var traced *phase
		var phases []*phase
		layers, traced, phases, err = tracedRun(e, cache, classGolden, golden, cfg, rng, total, runDir)
		if err != nil {
			return nil, err
		}
		fig = e.figures(traced)
		for _, p := range phases {
			sums = append(sums, p.summarize())
		}
	} else {
		fixed, err := e.run(wl.rate, total*65/100, rng, false)
		if err != nil {
			return nil, err
		}
		fig = e.figures(fixed)
		sums = append(sums, fig.sum)
		// Drop the phase's per-request records so the live heap holds
		// the served model and engine, not the benchmark's bookkeeping.
		fixed = nil
		heap := liveHeapMB() - heapBase
		sustained, steps, err := e.sustained(fig.sum, total/20, 7, rng)
		if err != nil {
			return nil, err
		}
		for _, p := range steps {
			sums = append(sums, p.summarize())
		}
		if err := timeSetups(cfg.setups - len(setups)); err != nil {
			return nil, err
		}
		endToEnd(rep, fig, median(setups), sustained, heap)
	}
	for _, s := range sums {
		rep.Attempted += s.attempted
		rep.Failed += s.failed
	}
	if rep.Failed > 0 {
		fail(fmt.Errorf("%d of %d requests failed", rep.Failed, rep.Attempted))
	}
	// The floor is judged once there are enough answers for a share to
	// mean something (every full-size run has hundreds or more).
	if cfg.floors && fig.answers >= minQualityAnswers && fig.quality < accuracyFloor(wl.cluster) {
		fail(fmt.Errorf("accuracy %.4f over %d answers is below the floor %.2f", fig.quality, fig.answers, accuracyFloor(wl.cluster)))
	}
	stopMaintenance()
	stopped = true
	if err := recoveryCheck(in, base, e.acked, e.unknown); err != nil {
		fail(err)
	} else {
		fmt.Fprintf(out, "# recovery: %d prefill + %d acked writes all present after WAL replay\n", base, e.acked)
	}
	if cfg.trace {
		for _, name := range layers.order {
			rep.Metrics[name] = metric{Value: layers.vals[name], Unit: layers.units[name]}
		}
	}
	rep.Printed["error_rate"] = metric{Value: float64(rep.Failed) / float64(max(1, rep.Attempted)), Unit: "fraction"}
	for _, name := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(out, "%-36s %14.4f %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	for _, name := range sortedKeys(rep.Printed) {
		fmt.Fprintf(out, "%-36s %14.4f %s (printed, not in the result line)\n", name, rep.Printed[name].Value, rep.Printed[name].Unit)
	}
	fmt.Fprintf(out, "# correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	if len(problems) > 0 {
		fmt.Fprintln(out, "# correctness problems:", errors.Join(problems...))
	}
	return rep, nil
}

// figures is what a run keeps of its measured phase once the phase's
// per-request records are dropped.
type figures struct {
	sum summary
	// quality is the answer quality over answers answers:
	// classification accuracy, or the macro-cluster score on the
	// clustering workload.
	quality           float64
	answers           int
	readP50, writeP50 float64
	readP99, writeP99 float64
}

func (e *env) figures(p *phase) figures {
	f := figures{
		sum:     p.summarize(),
		readP50: windowedQuantile(p, true, 0.5), writeP50: windowedQuantile(p, false, 0.5),
		readP99: windowedQuantile(p, true, 0.99), writeP99: windowedQuantile(p, false, 0.99),
	}
	if e.wl.cluster {
		f.quality, f.answers = e.clusterQuality(p)
	} else {
		f.quality, f.answers = e.accuracy(p)
	}
	return f
}

// The latency percentiles are taken over equal windows of the
// fixed-rate phase and the median over the windows is reported, so one
// stall-driven burst moves one window, not the run's figure. There are
// at most maxWindows windows, fewer when a window would hold under
// minWindowSamples requests of the kind, so each window's p99 still has
// ten samples beyond it.
const (
	maxWindows       = 10
	minWindowSamples = 1000
)

// windowedQuantile is the median over the phase's windows of the
// q-quantile of read (or write) latencies due in each window.
func windowedQuantile(p *phase, reads bool, q float64) float64 {
	var due, lat []float64
	for i, o := range p.ops {
		if r := &p.res[i]; o.kind.isRead() == reads && r.ok {
			due = append(due, float64(r.due)/float64(p.dur))
			lat = append(lat, ms(r.latency()))
		}
	}
	windows := min(maxWindows, max(1, len(lat)/minWindowSamples))
	per := make([][]float64, windows)
	for i, f := range due {
		w := min(windows-1, int(f*float64(windows)))
		per[w] = append(per[w], lat[i])
	}
	var qs []float64
	for _, l := range per {
		if len(l) > 0 {
			sort.Float64s(l)
			qs = append(qs, quantile(l, q))
		}
	}
	return median(qs)
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(rep *report, f figures, setup, sustained, heap float64) {
	put := func(to map[string]metric, name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		to[name] = metric{Value: v, Unit: unit}
	}
	put(rep.Metrics, "setup_s", "s", setup)
	put(rep.Metrics, "read_p50_ms", "ms", f.readP50)
	put(rep.Metrics, "write_p50_ms", "ms", f.writeP50)
	put(rep.Printed, "sustained_rps", "req/s", sustained)
	put(rep.Metrics, "cpu_us_per_req", "us", f.sum.cpuPerReq)
	put(rep.Metrics, "accuracy", "fraction", f.quality)
	put(rep.Metrics, "heap_mb", "MB", heap)
	put(rep.Printed, "read_p99_ms", "ms", f.readP99)
	put(rep.Printed, "write_p99_ms", "ms", f.writeP99)
}

// sustained searches the highest offered rate of the workload's mix
// that meets the latency limit with achieved ≥ 98% of offered: it grows
// the rate by 1.5× from the fixed-rate phase until a step fails (or
// shrinks it until one passes), then bisects geometrically until the
// bracket is narrower than 4%. Each step is a fresh open-loop phase of
// length step.
func (e *env) sustained(first summary, step time.Duration, maxSteps int, rng *rand.Rand) (float64, []*phase, error) {
	lo, hi := 0.0, 0.0
	if first.meets(e.wl.limit) {
		lo = e.wl.rate
	} else {
		hi = e.wl.rate
	}
	var steps []*phase
	for i := 0; i < maxSteps; i++ {
		var r float64
		switch {
		case hi == 0:
			r = lo * 1.5
		case lo == 0:
			r = hi / 1.5
		case hi/lo <= 1.04:
			return lo, steps, nil
		default:
			r = math.Sqrt(lo * hi)
		}
		p, err := e.run(r, step, rng, false)
		if err != nil {
			return 0, steps, err
		}
		steps = append(steps, p)
		if p.summarize().meets(e.wl.limit) {
			lo = r
		} else {
			hi = r
		}
	}
	return lo, steps, nil
}

// tracedRun is the per-layer run: an untraced phase as the overhead
// reference, a traced phase (spans, /stats and runtime/metrics deltas,
// CPU profile), then replays of the traced phase's inputs against each
// layer.
func tracedRun(e *env, cache *modelCache, classGolden, golden string, cfg config, rng *rand.Rand, total time.Duration, runDir string) (*layerMetrics, *phase, []*phase, error) {
	m := &layerMetrics{}
	plain, err := e.run(e.wl.rate, total/2, rng, false)
	if err != nil {
		return nil, nil, nil, err
	}
	s0, err := readStats(e.client, e.in.base)
	if err != nil {
		return nil, nil, nil, err
	}
	r0 := readRuntime()
	var traced *phase
	var runErr error
	prof, err := profileCPU(func() { traced, runErr = e.run(e.wl.rate, total/2, rng, true) })
	if err == nil {
		err = runErr
	}
	if err != nil {
		return nil, nil, nil, err
	}
	r1 := readRuntime()
	s1, err := readStats(e.client, e.in.base)
	if err != nil {
		return nil, nil, nil, err
	}
	ts := traced.summarize()
	ps := plain.summarize()

	spanMetrics(m, traced)
	counterMetrics(m, s0, s1, r0, r1, ts.attempted-ts.failed)
	if err := profileMetrics(m, prof); err != nil {
		return nil, nil, nil, err
	}
	m.set("trace.overhead_cpu_frac", "fraction", ratio(ts.cpuPerReq, ps.cpuPerReq)-1)
	m.set("trace.overhead_read_p50_frac", "fraction", ratio(quantile(ts.reads, 0.5), quantile(ps.reads, 0.5))-1)

	in := e.recorded(traced, 2000)
	if err := classReplays(m, classGolden, cache, in, cfg.sweep, !e.wl.cluster); err != nil {
		return nil, nil, nil, fmt.Errorf("class replays: %w", err)
	}
	clusterGolden := golden
	if !e.wl.cluster {
		if clusterGolden, err = cache.clusterModel(); err != nil {
			return nil, nil, nil, err
		}
	}
	if err := clusterReplays(m, clusterGolden, in, e.wl.cluster); err != nil {
		return nil, nil, nil, fmt.Errorf("cluster replays: %w", err)
	}
	kernelMetrics(m, in, e.d.dim)
	recBytes := 8 + 8*e.d.dim
	if e.wl.cluster {
		recBytes = 16 + 8*e.d.dim
	}
	if err := walMetrics(m, runDir, recBytes); err != nil {
		return nil, nil, nil, fmt.Errorf("wal replay: %w", err)
	}

	// Self times: a layer's replay time minus the replay time of the
	// layer it calls.
	v := m.vals
	m.set("http.read_self_us", "us", v["http.read_p50_us"]-v["engine.read_us"])
	m.set("http.write_self_us", "us", v["http.write_p50_us"]-v["engine.write_us"])
	if e.wl.cluster {
		m.set("engine.read_self_us", "us", v["engine.read_us"]-1000*v["clustree.macro_ms"])
	} else {
		m.set("engine.read_self_us", "us", v["engine.read_us"]-v["core.descent_us"])
	}
	m.set("engine.read_wait_p99_us", "us", v["http.read_p99_us"]-v["engine.read_p99_us"])
	return m, traced, []*phase{plain, traced}, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
