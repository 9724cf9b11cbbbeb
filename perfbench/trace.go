package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/kernels"
	"bayestree/internal/persist"
	"bayestree/internal/server"
	"bayestree/internal/wal"
)

// The traced run measures every layer from outside the program: spans
// around the benchmark's calls into each layer's public functions,
// /stats counters and runtime/metrics read at the traced phase's
// boundaries, a CPU profile of the traced phase, and replays of the
// phase's recorded inputs against each layer's public function with
// one caller. Nothing inside the program is instrumented.

// spanHeader carries a traced request's index, so the handler span the
// middleware records pairs with the client span of the same request.
const spanHeader = "X-Bench-Span"

// middleware records the duration of every traced request's handler
// call (request decode, engine call, answer encode).
type middleware struct {
	h     http.Handler
	mu    sync.Mutex
	spans map[int]int64 // nil when not tracing
}

func newMiddleware(h http.Handler) *middleware { return &middleware{h: h} }

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(spanHeader)
	if id == "" {
		m.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	m.h.ServeHTTP(w, r)
	d := time.Since(start)
	i, err := strconv.Atoi(id)
	m.mu.Lock()
	if err == nil && m.spans != nil {
		m.spans[i] = int64(d)
	}
	m.mu.Unlock()
}

func (m *middleware) begin() {
	m.mu.Lock()
	m.spans = map[int]int64{}
	m.mu.Unlock()
}

func (m *middleware) end() map[int]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.spans
	m.spans = nil
	return s
}

// statsSnap is the subset of /stats the per-layer metrics read.
type statsSnap struct {
	Requests       int64 `json:"requests"`
	NodesRequested int64 `json:"nodes_requested"`
	NodesRead      int64 `json:"nodes_read"`
	SoAHits        int64 `json:"soa_hits"`
	SoAMisses      int64 `json:"soa_misses"`
	WALAppends     int64 `json:"wal_appends"`
	WALSyncs       int64 `json:"wal_syncs"`
	WALBytes       int64 `json:"wal_bytes"`
}

func readStats(c *http.Client, base string) (statsSnap, error) {
	var s statsSnap
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// runtime/metrics read at the phase boundaries.
var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtUint(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// pauseP99 is the 99th percentile of the GC pauses recorded between
// two histogram reads, as the upper edge of its bucket.
func pauseP99(a, b metrics.Sample) float64 {
	if a.Value.Kind() != metrics.KindFloat64Histogram || b.Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Value.Float64Histogram(), b.Value.Float64Histogram()
	var total uint64
	delta := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		delta[i] = hb.Counts[i] - ha.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range delta {
		cum += c
		if float64(cum) >= 0.99*float64(total) {
			if up := hb.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return hb.Buckets[i]
		}
	}
	return 0
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return rtUint(s[0]) / (1 << 20)
}

// layerMetrics is the per-layer report: name → value, with units kept
// beside it.
type layerMetrics struct {
	vals  map[string]float64
	units map[string]string
	order []string
}

func (m *layerMetrics) set(name, unit string, v float64) {
	if m.vals == nil {
		m.vals, m.units = map[string]float64{}, map[string]string{}
	}
	if _, ok := m.vals[name]; !ok {
		m.order = append(m.order, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.vals[name], m.units[name] = v, unit
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func durMean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics derives the generator, client, transport and handler
// metrics of a traced phase.
func spanMetrics(m *layerMetrics, p *phase) {
	var late, wait, hRead, hWrite, tRead, tWrite []time.Duration
	for i, o := range p.ops {
		r := &p.res[i]
		if r.abandoned {
			continue
		}
		late = append(late, r.fired-r.due)
		wait = append(wait, r.picked-r.fired)
		if !r.ok || p.spans[i] == 0 {
			continue
		}
		h := time.Duration(p.spans[i])
		if o.kind.isRead() {
			hRead = append(hRead, h)
			tRead = append(tRead, r.client-h)
		} else {
			hWrite = append(hWrite, h)
			tWrite = append(tWrite, r.client-h)
		}
	}
	m.set("gen.late_p50_ms", "ms", ms(durQuantile(late, 0.5)))
	m.set("gen.late_p99_ms", "ms", ms(durQuantile(late, 0.99)))
	m.set("client.inflight_wait_p50_ms", "ms", ms(durQuantile(wait, 0.5)))
	m.set("client.inflight_wait_p99_ms", "ms", ms(durQuantile(wait, 0.99)))
	m.set("transport.read_p50_us", "us", us(durQuantile(tRead, 0.5)))
	m.set("transport.write_p50_us", "us", us(durQuantile(tWrite, 0.5)))
	m.set("http.read_p50_us", "us", us(durQuantile(hRead, 0.5)))
	m.set("http.read_p99_us", "us", us(durQuantile(hRead, 0.99)))
	m.set("http.write_p50_us", "us", us(durQuantile(hWrite, 0.5)))
	m.set("http.write_p99_us", "us", us(durQuantile(hWrite, 0.99)))
}

// counterMetrics derives the /stats and runtime/metrics deltas of a
// traced phase.
func counterMetrics(m *layerMetrics, s0, s1 statsSnap, r0, r1 []metrics.Sample, okReqs int) {
	reqs := float64(s1.Requests - s0.Requests)
	m.set("engine.nodes_read_per_read", "count", ratio(float64(s1.NodesRead-s0.NodesRead), reqs))
	m.set("engine.budget_used_frac", "fraction", ratio(float64(s1.NodesRead-s0.NodesRead), float64(s1.NodesRequested-s0.NodesRequested)))
	hits, misses := float64(s1.SoAHits-s0.SoAHits), float64(s1.SoAMisses-s0.SoAMisses)
	m.set("core.soa_hit_ratio", "fraction", ratio(hits, hits+misses))
	appends := float64(s1.WALAppends - s0.WALAppends)
	syncs := float64(s1.WALSyncs - s0.WALSyncs)
	if syncs == 0 {
		syncs = 1
	}
	m.set("wal.appends_per_sync", "count", ratio(appends, syncs))
	m.set("wal.bytes_per_write", "B", ratio(float64(s1.WALBytes-s0.WALBytes), appends))

	n := float64(okReqs)
	m.set("go.allocs_per_req", "count", ratio(rtUint(r1[0])-rtUint(r0[0]), n))
	m.set("go.alloc_kb_per_req", "KiB", ratio(rtUint(r1[1])-rtUint(r0[1]), n)/1024)
	m.set("go.gc_cpu_frac", "fraction", ratio(rtUint(r1[2])-rtUint(r0[2]), rtUint(r1[3])-rtUint(r0[3])))
	m.set("go.gc_pause_p99_ms", "ms", pauseP99(r0[4], r1[4])*1e3)
}

// profileMetrics reads the traced phase's CPU profile into package
// shares.
func profileMetrics(m *layerMetrics, prof []byte) error {
	samples, err := parseCPUProfile(prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	shares := cpuShares(samples)
	for _, b := range cpuBuckets {
		m.set("cpu."+b, "fraction", shares[b])
	}
	return nil
}

// replayInputs are a traced phase's recorded inputs, capped so the
// replays stay short.
type replayInputs struct {
	reads  [][]float64
	writes [][]float64
	labels []int
}

func (e *env) recorded(p *phase, limit int) replayInputs {
	var in replayInputs
	for i, o := range p.ops {
		if !p.res[i].ok {
			continue
		}
		switch {
		case o.kind.isRead():
			if len(in.reads) < limit {
				in.reads = append(in.reads, e.d.holdout[o.pt])
			}
		case len(in.writes) < limit:
			x, y := e.writePoint(o.pt)
			in.writes = append(in.writes, x)
			in.labels = append(in.labels, y)
		}
	}
	// A workload whose phase had no reads or writes of a kind still
	// replays the layer on its own points.
	for i := 0; len(in.reads) < 200 && i < len(e.d.holdout); i++ {
		in.reads = append(in.reads, e.d.holdout[i])
	}
	for i := 0; len(in.writes) < 200 && i < len(e.d.stream); i++ {
		in.writes = append(in.writes, e.d.stream[i])
		in.labels = append(in.labels, e.d.streamY[i])
	}
	return in
}

// timeIt times each call of fn(i) for i < n.
func timeIt(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0)
	}
	return out, nil
}

// descend runs one budgeted classification descent over every shard —
// the core layer under Server.Classify.
func descend(trees []*core.MultiTree, x []float64, budget int) error {
	sizes := make([]int, len(trees))
	total := 0
	for i, t := range trees {
		sizes[i] = t.Len()
		total += sizes[i]
	}
	for i, b := range server.SplitBudget(budget, sizes, total) {
		if sizes[i] == 0 {
			continue
		}
		q, err := trees[i].NewQuery(x, core.ClassifierOptions{})
		if err != nil {
			return err
		}
		for k := 0; k < b && q.Step(); k++ {
		}
		q.Scores()
		q.Close()
	}
	return nil
}

// classReplays replays the recorded inputs against the classification
// layers: the engine (Server.Classify / Server.Insert on a fresh copy
// of the model), core descent and insert+mirror refresh on decoded
// trees, persist decode/encode of the checkpoint, and the model-size
// sweep. engineLayer selects whether the engine metrics come from here
// (classification workloads).
func classReplays(m *layerMetrics, golden string, cache *modelCache, in replayInputs, sweep []int, engineLayer bool) error {
	var decodes []time.Duration
	decode := func() ([]*core.MultiTree, error) {
		t0 := time.Now()
		trees, err := decodeTrees(golden)
		decodes = append(decodes, time.Since(t0))
		return trees, err
	}
	engineTrees, err := decode()
	if err != nil {
		return err
	}
	coreTrees, err := decode()
	if err != nil {
		return err
	}
	encTrees, err := decode()
	if err != nil {
		return err
	}
	// Reads first on both layers, from the same heap state, then writes.
	for _, t := range coreTrees {
		t.RefreshSoA()
	}
	runtime.GC()
	descents, err := timeIt(len(in.reads), func(i int) error { return descend(coreTrees, in.reads[i], classifyBudget) })
	if err != nil {
		return err
	}
	m.set("core.descent_us", "us", us(durQuantile(descents, 0.5)))
	if engineLayer {
		s, err := server.New(engineTrees, classConfig())
		if err != nil {
			return err
		}
		runtime.GC()
		reads, err := timeIt(len(in.reads), func(i int) error {
			_, err := s.Classify(in.reads[i], classifyBudget)
			return err
		})
		if err != nil {
			return err
		}
		runtime.GC()
		writes, err := timeIt(len(in.writes), func(i int) error { return s.Insert(in.writes[i], in.labels[i]) })
		if err != nil {
			return err
		}
		m.set("engine.read_us", "us", us(durQuantile(reads, 0.5)))
		m.set("engine.read_p99_us", "us", us(durQuantile(reads, 0.99)))
		m.set("engine.write_us", "us", us(durQuantile(writes, 0.5)))
	}
	runtime.GC()
	var r0, p0 int64
	for _, t := range coreTrees {
		r, p, _ := t.SoACounters()
		r0, p0 = r0+r, p0+p
	}
	inserts := make([]time.Duration, len(in.writes))
	refreshes := make([]time.Duration, len(in.writes))
	for i, x := range in.writes {
		t := coreTrees[server.RouteShard(x, len(coreTrees))]
		t0 := time.Now()
		if err := t.Insert(x, in.labels[i]); err != nil {
			return err
		}
		t1 := time.Now()
		t.RefreshSoA()
		inserts[i], refreshes[i] = t1.Sub(t0), time.Since(t1)
	}
	var r1, p1 int64
	for _, t := range coreTrees {
		r, p, _ := t.SoACounters()
		r1, p1 = r1+r, p1+p
	}
	var insTotal, refTotal time.Duration
	for i := range inserts {
		insTotal += inserts[i]
		refTotal += refreshes[i]
	}
	k := float64(len(in.writes)) / 1000
	m.set("core.insert_us", "us", us(durMean(inserts)))
	m.set("core.refresh_soa_us", "us", us(durMean(refreshes)))
	m.set("core.refresh_soa_p99_us", "us", us(durQuantile(refreshes, 0.99)))
	m.set("core.refresh_soa_share", "fraction", ratio(float64(refTotal), float64(insTotal+refTotal)))
	m.set("core.soa_rebuilds_per_1k_writes", "count", ratio(float64(r1-r0), k))
	m.set("core.soa_patches_per_1k_writes", "count", ratio(float64(p1-p0), k))

	if engineLayer {
		if err := persistMetrics(m, golden, decodes, func(w io.Writer) error { return persist.EncodeMultiTrees(w, encTrees) }); err != nil {
			return err
		}
	}
	return sizeSweep(m, cache, in, sweep)
}

// persistMetrics reports checkpoint decode and encode times and the
// checkpoint size.
func persistMetrics(m *layerMetrics, golden string, decodes []time.Duration, encode func(io.Writer) error) error {
	var encodes []time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := encode(io.Discard); err != nil {
			return err
		}
		encodes = append(encodes, time.Since(t0))
	}
	path, err := snapshotFile(golden)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("persist.decode_ms", "ms", ms(durQuantile(decodes, 0.5)))
	m.set("persist.encode_ms", "ms", ms(durQuantile(encodes, 0.5)))
	m.set("persist.snapshot_mb", "MB", float64(st.Size())/(1<<20))
	return nil
}

// sizeLabel names a nominal sweep size: 1000 → "n1k".
func sizeLabel(n int) string {
	if n%1000 == 0 {
		return fmt.Sprintf("n%dk", n/1000)
	}
	return fmt.Sprintf("n%d", n)
}

// sizeSweep times insert+mirror refresh and budget-50 descent on one
// tree at each model size, showing how per-operation cost grows with
// the model. A size beyond the prefill is capped at the prefill (only
// in shrunken test configurations).
func sizeSweep(m *layerMetrics, cache *modelCache, in replayInputs, sizes []int) error {
	const ops = 300
	for _, n := range sizes {
		path, err := cache.sweepTree(min(n, len(cache.d.prefill)))
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		t, err := persist.DecodeMultiTree(f)
		f.Close()
		if err != nil {
			return err
		}
		t.RefreshSoA()
		trees := []*core.MultiTree{t}
		reads := in.reads
		if len(reads) > ops {
			reads = reads[:ops]
		}
		descents, err := timeIt(len(reads), func(i int) error { return descend(trees, reads[i], classifyBudget) })
		if err != nil {
			return err
		}
		writes, err := timeIt(min(ops, len(in.writes)), func(i int) error {
			if err := t.Insert(in.writes[i], in.labels[i]); err != nil {
				return err
			}
			t.RefreshSoA()
			return nil
		})
		if err != nil {
			return err
		}
		m.set("core.descent_us."+sizeLabel(n), "us", us(durMean(descents)))
		m.set("core.write_us."+sizeLabel(n), "us", us(durMean(writes)))
	}
	return nil
}

// clusterReplays replays the recorded write points against the
// clustering tree (Tree.InsertCounted on decoded shard trees), then on
// a fresh engine decoded from the same checkpoint — after one
// maintenance sweep, as while serving — times macro-clustering of its
// micro-clusters and, on the clustering workload, the engine calls
// themselves (ClusterServer.Insert, ClusterServer.MacroClusters) and
// the checkpoint codec.
func clusterReplays(m *layerMetrics, golden string, in replayInputs, engineLayer bool) error {
	path, err := snapshotFile(golden)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var decodes []time.Duration
	decode := func() (persist.ClusterSet, error) {
		t0 := time.Now()
		set, err := persist.DecodeClusterSet(bytes.NewReader(raw))
		decodes = append(decodes, time.Since(t0))
		return set, err
	}
	set, err := decode()
	if err != nil {
		return err
	}
	var inserts []time.Duration
	visited, parked := 0, 0
	clock := set.Clock
	for _, x := range in.writes {
		t := set.Trees[server.RouteShard(x, len(set.Trees))]
		clock++
		before := t.Parked()
		t0 := time.Now()
		v, err := t.InsertCounted(x, float64(clock), clusterBudget)
		inserts = append(inserts, time.Since(t0))
		if err != nil {
			return err
		}
		visited += v
		if t.Parked() > before {
			parked++
		}
	}
	n := float64(len(in.writes))
	m.set("clustree.insert_us", "us", us(durMean(inserts)))
	m.set("clustree.nodes_per_insert", "count", ratio(float64(visited), n))
	m.set("clustree.parked_frac", "fraction", ratio(float64(parked), n))

	s, err := server.ClusterFromSnapshot(bytes.NewReader(raw), clusterConfig(), clusterOptions())
	if err != nil {
		return err
	}
	defer s.Close()
	writes, err := timeIt(len(in.writes), func(i int) error {
		_, err := s.Insert(in.writes[i], clusterBudget)
		return err
	})
	if err != nil {
		return err
	}
	s.AdvanceDecay()
	mcs := s.MicroClusters(0)
	macros, err := timeIt(5, func(int) error {
		clustree.MacroClusters(mcs, clustree.MacroOptions{Eps: macroEps, MinWeight: macroMinW})
		return nil
	})
	if err != nil {
		return err
	}
	m.set("clustree.macro_ms", "ms", ms(durQuantile(macros, 0.5)))
	if !engineLayer {
		return nil
	}
	reads, err := timeIt(20, func(int) error {
		s.MacroClusters(macroEps, macroMinW)
		return nil
	})
	if err != nil {
		return err
	}
	m.set("engine.read_us", "us", us(durQuantile(reads, 0.5)))
	m.set("engine.read_p99_us", "us", us(durQuantile(reads, 0.99)))
	m.set("engine.write_us", "us", us(durQuantile(writes, 0.5)))

	// Two more decodes for a median of three; the last, untouched by the
	// replays above, is what gets encoded.
	for i := 0; i < 2; i++ {
		if set, err = decode(); err != nil {
			return err
		}
	}
	return persistMetrics(m, golden, decodes, func(w io.Writer) error { return persist.EncodeClusterSet(w, set) })
}

// kernelMetrics replays the frozen-Gaussian sweep at the model's
// dimension over a leaf-sized block, and reports the bytes one row of
// the sweep reads and writes, computed from the array sizes.
func kernelMetrics(m *layerMetrics, in replayInputs, dim int) {
	count := core.DefaultConfig(dim).MaxLeaf
	means := make([]float64, count*dim)
	invVar := make([]float64, count*dim)
	logVar := make([]float64, count*dim)
	logNorm := make([]float64, count)
	for j := 0; j < count; j++ {
		x := in.writes[j%len(in.writes)]
		for i := 0; i < dim; i++ {
			v := 0.01 + 0.001*float64(i+1)
			means[j*dim+i] = x[i]
			invVar[j*dim+i] = 1 / v
			logVar[j*dim+i] = math.Log(v)
		}
		logNorm[j] = -0.5 * float64(dim) * math.Log(2*math.Pi*0.01)
	}
	out := make([]float64, count)
	const calls = 200000
	t0 := time.Now()
	for k := 0; k < calls; k++ {
		kernels.SweepFrozenLogPDFObs(in.reads[k%len(in.reads)], means, invVar, logVar, logNorm, count, dim, nil, out)
	}
	el := time.Since(t0)
	m.set("kernels.sweep_ns_per_point", "ns", float64(el.Nanoseconds())/float64(calls*count))
	m.set("kernels.bytes_per_point", "B", float64((2*dim+2)*8))
}

// walMetrics replays WAL appends of the workload's record size under
// the served group-commit interval.
func walMetrics(m *layerMetrics, dir string, recordBytes int) error {
	dir = filepath.Join(dir, "wal-replay")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.Open(dir, wal.Options{FsyncEvery: fsyncEvery})
	if err != nil {
		return err
	}
	rec := make([]byte, recordBytes)
	appends, err := timeIt(5000, func(int) error { return lg.Append(rec) })
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	m.set("wal.append_us", "us", us(durMean(appends)))
	return nil
}

// profileCPU runs fn under the CPU profiler and returns the profile.
func profileCPU(fn func()) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), nil
}
