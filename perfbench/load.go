package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"bayestree/internal/server"
)

// op is one scheduled request: its kind, when it is due (offset from
// the phase start) and the index of its first point — into the holdout
// for reads, into the stream for writes.
type op struct {
	kind opKind
	due  time.Duration
	pt   int
}

// result is what happened to one op. Times are offsets from the phase
// start: fired is when the generator handed it to the client pool,
// picked when a connection took it, done when its answer was read.
type result struct {
	due, fired, picked, done time.Duration
	// client is the client span: request written to answer read.
	client    time.Duration
	ok        bool
	abandoned bool
	// unknown marks a write whose outcome the client could not learn
	// (transport error): the server may or may not have applied it.
	unknown bool
	label   int
	acked   int
	macro   [][]float64
}

// latency is the request's latency timed from its due time.
func (r *result) latency() time.Duration { return r.done - r.due }

// env is a run's client side: the workload, its inputs, the served
// instance and the cursors that make successive phases draw fresh
// points.
type env struct {
	wl        workload
	d         *data
	dataCfg   dataConfig
	in        *instance
	client    *http.Client
	nproc     int
	nextRead  int
	nextWrite int
	acked     int
	unknown   int
}

// dataConfig is what makeData needs to regenerate a run's inputs.
type dataConfig struct {
	Prefill, Pool, Holdout int
	Seed                   int64
}

func newClient(nproc int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc,
			MaxConnsPerHost:     nproc,
			DisableCompression:  true,
		},
	}
}

// schedule draws a Poisson arrival schedule of the workload's mix at
// rate requests per second over dur.
func (e *env) schedule(rate float64, dur time.Duration, rng *rand.Rand) []op {
	var ops []op
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return ops
		}
		o := op{kind: e.wl.next(rng), due: due}
		if o.kind.isRead() {
			o.pt = e.nextRead % len(e.d.holdout)
			e.nextRead++
		} else {
			o.pt = e.nextWrite
			e.nextWrite++
		}
		ops = append(ops, o)
	}
}

// phase is one open-loop run of a schedule. cpu is the benchmark
// process's CPU time over the phase: the server's, since the load runs
// in its own process.
type phase struct {
	dur   time.Duration
	limit time.Duration
	ops   []op
	res   []result
	cpu   time.Duration
	// spans are the handler spans the middleware recorded (traced
	// phases only), indexed like ops; 0 where none was recorded.
	spans []int64
}

// loadEnv, when set in the environment, makes the benchmark binary run
// as the load-generating process of one phase instead.
const loadEnv = "PERFBENCH_LOAD_PHASE"

// loadSpec tells the load process which phase to run.
type loadSpec struct {
	Workload            string
	Base                string
	Rate                float64
	Dur                 time.Duration
	Traced              bool
	Seed                int64
	NextRead, NextWrite int
	Nproc               int
	Data                dataConfig
}

// wireOp and wireResult carry a phase's schedule and outcomes from the
// load process back to the benchmark.
type wireOp struct {
	Kind opKind
	Due  time.Duration
	Pt   int
}

type wireResult struct {
	Due, Fired, Picked, Done, Client time.Duration
	OK, Abandoned, Unknown           bool
	Label, Acked                     int
	Macro                            [][]float64
}

type wirePhase struct {
	Ops                 []wireOp
	Res                 []wireResult
	NextRead, NextWrite int
}

// run runs one open-loop phase at rate for dur. The load comes from a
// separate process (this binary re-executed with loadEnv set), so the
// generator's timer never waits for a processor the server's handlers
// hold, and this process's CPU time is the server's alone.
func (e *env) run(rate float64, dur time.Duration, rng *rand.Rand, traced bool) (*phase, error) {
	spec := loadSpec{
		Workload: e.wl.name, Base: e.in.base, Rate: rate, Dur: dur, Traced: traced,
		Seed: rng.Int63(), NextRead: e.nextRead, NextWrite: e.nextWrite, Nproc: e.nproc, Data: e.dataCfg,
	}
	if traced {
		e.in.mw.begin()
	}
	w, cpu, err := spawnLoad(spec)
	var spans map[int]int64
	if traced {
		spans = e.in.mw.end()
	}
	if err != nil {
		return nil, err
	}
	p := &phase{dur: dur, limit: e.wl.limit, cpu: cpu}
	for i, o := range w.Ops {
		p.ops = append(p.ops, op{kind: o.Kind, due: o.Due, pt: o.Pt})
		r := w.Res[i]
		p.res = append(p.res, result{
			due: r.Due, fired: r.Fired, picked: r.Picked, done: r.Done, client: r.Client,
			ok: r.OK, abandoned: r.Abandoned, unknown: r.Unknown, label: r.Label, acked: r.Acked, macro: r.Macro,
		})
	}
	if traced {
		p.spans = make([]int64, len(p.ops))
		for i, d := range spans {
			if i < len(p.spans) {
				p.spans[i] = d
			}
		}
	}
	e.nextRead, e.nextWrite = w.NextRead, w.NextWrite
	for i := range p.res {
		e.acked += p.res[i].acked
		if p.res[i].unknown {
			e.unknown++
		}
	}
	return p, nil
}

// spawnLoad runs one phase in a load process and waits for it to end.
// cpu is this process's CPU time while the load process ran, read
// before the phase's outcomes are decoded, so it covers the server's
// work during the phase and not the benchmark's bookkeeping.
func spawnLoad(spec loadSpec) (w wirePhase, cpu time.Duration, err error) {
	exe, err := os.Executable()
	if err != nil {
		return w, 0, err
	}
	var in, out bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(spec); err != nil {
		return w, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), loadEnv+"=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = &in, &out, os.Stderr
	cpu0 := cpuTime()
	err = cmd.Run()
	cpu = cpuTime() - cpu0
	if err != nil {
		return w, 0, fmt.Errorf("load process: %w", err)
	}
	if err := gob.NewDecoder(&out).Decode(&w); err != nil {
		return w, 0, fmt.Errorf("load process output: %w", err)
	}
	return w, cpu, nil
}

// loadChild is the load process: it reads a loadSpec on stdin, runs the
// phase and writes the wirePhase on stdout.
func loadChild() error {
	var spec loadSpec
	if err := gob.NewDecoder(os.Stdin).Decode(&spec); err != nil {
		return err
	}
	wl, err := findWorkload(spec.Workload)
	if err != nil {
		return err
	}
	d, err := makeData(spec.Data.Prefill, spec.Data.Pool, spec.Data.Holdout, spec.Data.Seed)
	if err != nil {
		return err
	}
	e := &env{wl: wl, d: d, in: &instance{base: spec.Base}, client: newClient(spec.Nproc),
		nproc: spec.Nproc, nextRead: spec.NextRead, nextWrite: spec.NextWrite}
	defer e.client.CloseIdleConnections()
	p := e.fire(spec.Rate, spec.Dur, rand.New(rand.NewSource(spec.Seed)), spec.Traced)
	w := wirePhase{NextRead: e.nextRead, NextWrite: e.nextWrite}
	for i, o := range p.ops {
		w.Ops = append(w.Ops, wireOp{Kind: o.kind, Due: o.due, Pt: o.pt})
		r := &p.res[i]
		w.Res = append(w.Res, wireResult{
			Due: r.due, Fired: r.fired, Picked: r.picked, Done: r.done, Client: r.client,
			OK: r.ok, Abandoned: r.abandoned, Unknown: r.unknown, Label: r.label, Acked: r.acked, Macro: r.macro,
		})
	}
	return gob.NewEncoder(os.Stdout).Encode(w)
}

// fire sends the schedule open-loop from this process: on every wake-up
// the generator hands each request that is already due to a pool of
// nproc client connections, then sleeps until the next due time — it
// never sleeps once per request, so a timer that oversleeps delays a
// burst, not every request behind it. Requests still unsent grace
// after the schedule's end are abandoned (they count as misses).
func (e *env) fire(rate float64, dur time.Duration, rng *rand.Rand, traced bool) *phase {
	p := &phase{dur: dur, limit: e.wl.limit, ops: e.schedule(rate, dur, rng)}
	p.res = make([]result, len(p.ops))
	deadline := dur + grace(dur)
	queue := make(chan int, len(p.ops)) // sized to the number of sends
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &p.res[i]
				r.picked = time.Since(start)
				r.abandoned = r.picked > deadline
				if !r.abandoned {
					e.send(p.ops[i], i, r, traced)
					r.done = time.Since(start)
				}
			}
		}()
	}
	for i := 0; i < len(p.ops); {
		now := time.Since(start)
		for ; i < len(p.ops) && p.ops[i].due <= now; i++ {
			p.res[i].due, p.res[i].fired = p.ops[i].due, now
			queue <- i
		}
		if i < len(p.ops) {
			time.Sleep(p.ops[i].due - now)
		}
	}
	close(queue)
	wg.Wait()
	return p
}

// grace is how long after a phase's schedule ends its backlog may
// still be sent.
func grace(dur time.Duration) time.Duration {
	g := dur / 4
	if g > time.Second {
		g = time.Second
	}
	return g
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// appendPoint appends a JSON array of x with every digit, so the
// server decodes exactly the generated values.
func appendPoint(b []byte, x []float64) []byte {
	b = append(b, '[')
	for i, v := range x {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

func (e *env) writePoint(i int) ([]float64, int) {
	i %= len(e.d.stream)
	return e.d.stream[i], e.d.streamY[i]
}

// request builds the HTTP request of an op.
func (e *env) request(o op) (*http.Request, error) {
	var body []byte
	method, path := http.MethodPost, ""
	switch o.kind {
	case opClassify:
		path = "/classify"
		body = append(appendPoint(append(body, `{"x":`...), e.d.holdout[o.pt]), fmt.Sprintf(`,"budget":%d}`, classifyBudget)...)
	case opInsert:
		x, y := e.writePoint(o.pt)
		path = "/insert"
		body = append(appendPoint(append(body, `{"x":`...), x), fmt.Sprintf(`,"label":%d}`, y)...)
	case opCluster:
		x, _ := e.writePoint(o.pt)
		path = "/cluster"
		body = append(appendPoint(append(body, `{"x":`...), x), fmt.Sprintf(`,"budget":%d}`, clusterBudget)...)
	case opMacro:
		method, path = http.MethodGet, fmt.Sprintf("/macroclusters?eps=%g&minw=%g", macroEps, macroMinW)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.in.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// send performs one request and checks its answer's shape; a non-2xx
// status, a transport error or a malformed answer leaves r.ok false.
func (e *env) send(o op, id int, r *result, traced bool) {
	req, err := e.request(o)
	if err != nil {
		return
	}
	if traced {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err != nil {
		r.unknown = !o.kind.isRead()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.client = time.Since(t0)
	if err != nil {
		r.unknown = !o.kind.isRead()
		return
	}
	if resp.StatusCode != http.StatusOK {
		return
	}
	r.ok = e.check(o, body, r)
}

// check validates an answer and extracts what the metrics need.
func (e *env) check(o op, body []byte, r *result) bool {
	switch o.kind {
	case opClassify:
		var res server.Result
		if json.Unmarshal(body, &res) != nil || !e.knownLabel(res.Label) {
			return false
		}
		r.label = res.Label
	case opInsert:
		var ack struct{ OK bool }
		if json.Unmarshal(body, &ack) != nil || !ack.OK {
			return false
		}
		r.acked = 1
	case opCluster:
		var res server.ClusterResult
		if json.Unmarshal(body, &res) != nil || res.Shard < 0 || res.Shard >= shards {
			return false
		}
		r.acked = 1
	case opMacro:
		var res struct {
			Macro []struct{ Mean []float64 } `json:"macro_clusters"`
		}
		if json.Unmarshal(body, &res) != nil {
			return false
		}
		for _, m := range res.Macro {
			if len(m.Mean) != e.d.dim {
				return false
			}
			r.macro = append(r.macro, m.Mean)
		}
	}
	return true
}

func (e *env) knownLabel(l int) bool {
	for _, v := range e.d.labels {
		if v == l {
			return true
		}
	}
	return false
}

// summary is a phase reduced to the quantities the metrics need.
// achieved counts the successful requests completed by the end of the
// schedule plus the latency limit, per second of schedule: at a rate
// the server sustains every request completes within the limit, while
// a growing backlog pushes completions past it.
type summary struct {
	attempted, failed, abandoned int
	reads, writes                []float64 // latencies of successful requests, ms, sorted
	readMiss, writeMiss          int       // failed or abandoned
	offered, achieved            float64   // req/s
	cpuPerReq                    float64   // µs
}

func (p *phase) summarize() summary {
	var s summary
	ok := 0
	inTime := 0
	for i, o := range p.ops {
		r := &p.res[i]
		if r.abandoned {
			s.abandoned++
		} else {
			s.attempted++
		}
		if !r.ok {
			if !r.abandoned {
				s.failed++
			}
			if o.kind.isRead() {
				s.readMiss++
			} else {
				s.writeMiss++
			}
			continue
		}
		ok++
		ms := float64(r.latency()) / float64(time.Millisecond)
		if o.kind.isRead() {
			s.reads = append(s.reads, ms)
		} else {
			s.writes = append(s.writes, ms)
		}
		if r.done <= p.dur+p.limit {
			inTime++
		}
	}
	sort.Float64s(s.reads)
	sort.Float64s(s.writes)
	s.offered = float64(len(p.ops)) / p.dur.Seconds()
	s.achieved = float64(inTime) / p.dur.Seconds()
	if ok > 0 {
		s.cpuPerReq = float64(p.cpu) / float64(time.Microsecond) / float64(ok)
	}
	return s
}

// meets reports whether the phase kept both p99s within limit (misses
// count as over the limit) and achieved at least 98% of its offered
// rate.
func (s summary) meets(limit time.Duration) bool {
	lim := float64(limit) / float64(time.Millisecond)
	return quantileMiss(s.reads, s.readMiss, 0.99) <= lim &&
		quantileMiss(s.writes, s.writeMiss, 0.99) <= lim &&
		s.achieved >= 0.98*s.offered
}

// quantile is the q-quantile of sorted values, interpolating linearly
// between the two nearest ranks (NaN when empty).
func quantile(sorted []float64, q float64) float64 {
	return quantileMiss(sorted, 0, q)
}

// quantileMiss is quantile with miss extra samples at +Inf.
func quantileMiss(sorted []float64, miss int, q float64) float64 {
	n := len(sorted) + miss
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	k := int(pos)
	if k+1 >= len(sorted) {
		if k >= len(sorted) || pos > float64(k) {
			return math.Inf(1)
		}
		return sorted[k]
	}
	return sorted[k] + (pos-float64(k))*(sorted[k+1]-sorted[k])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// accuracy is the share of the phase's classify answers that match the
// holdout label.
func (e *env) accuracy(p *phase) (float64, int) {
	correct, n := 0, 0
	for i, o := range p.ops {
		if o.kind != opClassify || !p.res[i].ok {
			continue
		}
		n++
		if p.res[i].label == e.d.holdoutY[o.pt] {
			correct++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(correct) / float64(n), n
}

// clusterQuality is the clustering workload's accuracy: holdout
// points are assigned to the nearest macro-cluster mean of each
// /macroclusters answer, and the adjusted Rand index between that
// assignment and the holdout classes is averaged over the phase's
// answers. Unlike purity it does not reward splitting: the index is
// chance-adjusted, so one cluster for all points and one cluster per
// point both score 0. The server never sees the labels.
func (e *env) clusterQuality(p *phase) (float64, int) {
	const maxAnswers = 200
	var answers []*result
	for i, o := range p.ops {
		if r := &p.res[i]; o.kind == opMacro && r.ok && len(r.macro) > 0 {
			answers = append(answers, r)
		}
	}
	pts := e.d.holdout
	stride := (len(answers) + maxAnswers - 1) / maxAnswers
	var sum float64
	n := 0
	for a := 0; a < len(answers); a += stride {
		macro := answers[a].macro
		counts := make([][]int, len(macro))
		for k := range counts {
			counts[k] = make([]int, len(e.d.labels))
		}
		for j, x := range pts {
			best, bestD := 0, math.Inf(1)
			for k, m := range macro {
				var d2 float64
				for t := range x {
					d := x[t] - m[t]
					d2 += d * d
				}
				if d2 < bestD {
					best, bestD = k, d2
				}
			}
			counts[best][indexOfLabel(e.d.labels, e.d.holdoutY[j])]++
		}
		sum += adjustedRand(counts, len(pts))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func indexOfLabel(labels []int, y int) int {
	for i, l := range labels {
		if l == y {
			return i
		}
	}
	return -1
}

// adjustedRand is the adjusted Rand index of a cluster × class
// contingency table over n points: the share of point pairs on which
// the clustering and the classes agree, corrected for the agreement
// expected by chance (0 when the correction leaves nothing to compare).
func adjustedRand(counts [][]int, n int) float64 {
	pairs := func(x float64) float64 { return x * (x - 1) / 2 }
	classTot := make([]float64, len(counts[0]))
	var both, rows, cols float64
	for _, row := range counts {
		var rt float64
		for c, v := range row {
			both += pairs(float64(v))
			classTot[c] += float64(v)
			rt += float64(v)
		}
		rows += pairs(rt)
	}
	for _, ct := range classTot {
		cols += pairs(ct)
	}
	expected := rows * cols / pairs(float64(n))
	if den := (rows+cols)/2 - expected; den != 0 {
		return (both - expected) / den
	}
	return 0
}
