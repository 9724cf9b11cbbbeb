package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/server"
)

// TestMain lets the test binary serve as the load and set-up
// processes, as the benchmark binary does.
func TestMain(m *testing.M) {
	if runChild() {
		return
	}
	os.Exit(m.Run())
}

// smallConfig shrinks the model so a run takes seconds.
func smallConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = workload, 7, 2, trace
	cfg.prefill, cfg.pool, cfg.holdout = 3000, 4000, 500
	cfg.gate = 20
	cfg.floors = false
	cfg.dir, cfg.cache = filepath.Join(dir, "runs"), filepath.Join(dir, "models")
	return cfg
}

// benchmarkJSON is the metric inventory the benchmark declares.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmokeEmitsEveryMetric runs every workload briefly, untraced and
// traced, and checks that each passes its correctness gate and emits
// every declared metric with its declared unit, plus the printed-only
// figures on untraced runs.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-long runs")
	}
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json workload: %v", err)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			var out bytes.Buffer
			rep, err := run(smallConfig(t, w.name, trace), &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s trace=%v: %s not printed", w.name, trace, m.Name)
				}
			}
			for _, name := range []string{"read_p99_ms", "write_p99_ms", "sustained_rps", "error_rate"} {
				if _, ok := rep.Printed[name]; !ok && !trace {
					t.Errorf("%s: %s not printed", w.name, name)
				}
			}
		}
	}
}

// TestGateRejectsWrongLabel serves the model behind a handler that
// flips every classification label; the correctness gate must fail.
func TestGateRejectsWrongLabel(t *testing.T) {
	cfg := smallConfig(t, "serve-read", false)
	d, err := makeData(cfg.prefill, cfg.pool, cfg.holdout, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	cache := &modelCache{dir: cfg.cache, d: d}
	golden, err := cache.classModel()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := decodeTrees(golden)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(mustDecode(t, golden), classConfig())
	if err != nil {
		t.Fatal(err)
	}
	honest := httptest.NewServer(s.Handler())
	defer honest.Close()
	if err := classGate(honest.Client(), honest.URL, s, ref, d, 10); err != nil {
		t.Fatalf("honest handler failed the gate: %v", err)
	}

	h := s.Handler()
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var res server.Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Error(err)
		}
		res.Label = d.labels[(indexOfLabel(d.labels, res.Label)+1)%len(d.labels)]
		json.NewEncoder(w).Encode(res)
	}))
	defer liar.Close()
	err = classGate(liar.Client(), liar.URL, s, ref, d, 10)
	if err == nil || !strings.Contains(err.Error(), "label") {
		t.Fatalf("gate accepted a wrong label: %v", err)
	}
}

func mustDecode(t *testing.T, golden string) []*core.MultiTree {
	trees, err := decodeTrees(golden)
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

// TestRecoveryCheckCatchesLostWrite claims one more acknowledged write
// than the server holds; the post-run recovery check must fail.
func TestRecoveryCheckCatchesLostWrite(t *testing.T) {
	cfg := smallConfig(t, "serve-read", false)
	d, err := makeData(cfg.prefill, cfg.pool, cfg.holdout, cfg.seed)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := (&modelCache{dir: cfg.cache, d: d}).classModel()
	if err != nil {
		t.Fatal(err)
	}
	client := newClient(2)
	in, err := startInstance(golden, filepath.Join(cfg.dir, "model"), false, client)
	if err != nil {
		t.Fatal(err)
	}
	base := in.observations()
	if err := in.class.Insert(d.stream[0], d.streamY[0]); err != nil {
		t.Fatal(err)
	}
	if err := recoveryCheck(in, base, 2, 0); err == nil {
		t.Fatal("recovery check accepted a lost acknowledged write")
	}
}

// TestGeneratorFiresLateRequestsTogether checks the open-loop
// generator: every scheduled request is sent once, latency is timed
// from the due time, and the schedule is a function of the seed.
func TestGeneratorFiresLateRequestsTogether(t *testing.T) {
	wl, _ := findWorkload("serve-read")
	d, err := makeData(100, 400, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/classify" {
			io.WriteString(w, `{"label":0}`)
			return
		}
		io.WriteString(w, `{"ok":true}`)
	}))
	defer srv.Close()
	e := &env{wl: wl, d: d, in: &instance{base: srv.URL}, client: newClient(2), nproc: 2}
	p := e.fire(500, 400*time.Millisecond, rand.New(rand.NewSource(1)), false)
	s := p.summarize()
	if s.attempted != len(p.ops) || s.failed != 0 || len(p.ops) < 100 {
		t.Fatalf("attempted %d of %d, failed %d", s.attempted, len(p.ops), s.failed)
	}
	for i, o := range p.ops {
		r := &p.res[i]
		if r.due != o.due || r.fired < r.due || r.picked < r.fired || r.done < r.picked || r.latency() < r.client {
			t.Fatalf("request %d: due %v fired %v picked %v done %v client %v", i, r.due, r.fired, r.picked, r.done, r.client)
		}
	}
	again := (&env{wl: wl, d: d}).schedule(500, 400*time.Millisecond, rand.New(rand.NewSource(1)))
	if len(again) != len(p.ops) || again[len(again)-1] != p.ops[len(p.ops)-1] {
		t.Fatal("same seed gave a different schedule")
	}
}

// TestAdjustedRandPenalizesSplitting pins the clustering score: a
// perfect clustering scores 1, one cluster for all points and one
// cluster per point both score 0, and splitting a class's cluster
// lowers the score.
func TestAdjustedRandPenalizesSplitting(t *testing.T) {
	singletons := make([][]int, 10)
	for i := range singletons {
		singletons[i] = []int{0, 0}
		singletons[i][i%2] = 1
	}
	for _, c := range []struct {
		name   string
		counts [][]int
		want   float64
	}{
		{"perfect", [][]int{{5, 0}, {0, 5}}, 1},
		{"one cluster", [][]int{{5, 5}}, 0},
		{"singletons", singletons, 0},
	} {
		if got := adjustedRand(c.counts, 10); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
	if split := adjustedRand([][]int{{5, 0}, {0, 3}, {0, 2}}, 10); split >= 1 || split <= 0 {
		t.Errorf("split clustering scores %v, want in (0, 1)", split)
	}
}

// TestParseCPUProfile profiles a busy loop in this package and checks
// that the reader attributes samples to named functions.
func TestParseCPUProfile(t *testing.T) {
	prof, err := profileCPU(func() {
		deadline := time.Now().Add(300 * time.Millisecond)
		x := 0.0
		for time.Now().Before(deadline) {
			for i := 0; i < 1000; i++ {
				x += float64(i) * 1e-9
			}
		}
		sink = x
	})
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseCPUProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	busy := false
	for _, s := range samples {
		if len(s.stack) == 0 || s.nanos <= 0 {
			t.Fatalf("bad sample %+v", s)
		}
		for _, fn := range s.stack {
			busy = busy || strings.Contains(fn, "TestParseCPUProfile")
		}
	}
	if !busy {
		t.Fatal("no sample attributed to the profiled loop")
	}
	var sum float64
	for _, v := range cpuShares(samples) {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v", sum)
	}
}

var sink float64
