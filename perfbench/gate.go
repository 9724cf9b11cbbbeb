package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"

	"bayestree/internal/core"
	"bayestree/internal/persist"
	"bayestree/internal/server"
	"bayestree/internal/stats"
)

// Correctness gate. Before the measured phases, answers served over
// HTTP must be digit-identical to direct engine calls and to a
// reference decoded from the same snapshot. After the run the model is
// closed, reopened through WAL recovery, and must hold exactly the
// prefill plus every acknowledged write.

// postJSON posts body and decodes a 200 answer into out.
func postJSON(c *http.Client, url string, body []byte, out interface{}) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// refClassify is the reference classification: the size-proportional
// budget split and size-weighted log-sum-exp merge of the served
// engine, computed over trees decoded independently of it.
func refClassify(trees []*core.MultiTree, labels []int, x []float64, budget int) (int, []float64, error) {
	sizes := make([]int, len(trees))
	weights := make([]float64, len(trees))
	total, totalW := 0, 0.0
	for i, t := range trees {
		sizes[i], weights[i] = t.Len(), t.Weight()
		total += sizes[i]
		totalW += weights[i]
	}
	budgets := server.SplitBudget(budget, sizes, total)
	perClass := make([][]float64, len(labels))
	for i, t := range trees {
		if sizes[i] == 0 {
			continue
		}
		q, err := t.NewQuery(x, core.ClassifierOptions{})
		if err != nil {
			return 0, nil, err
		}
		for b := 0; b < budgets[i]; b++ {
			if !q.Step() {
				break
			}
		}
		scores := q.Scores()
		q.Close()
		logW := math.Log(weights[i] / totalW)
		for c, sc := range scores {
			if !math.IsInf(sc, -1) {
				perClass[c] = append(perClass[c], logW+sc)
			}
		}
	}
	combined := make([]float64, len(labels))
	best := 0
	for c := range combined {
		if len(perClass[c]) == 0 {
			combined[c] = math.Inf(-1)
		} else {
			combined[c] = stats.LogSumExp(perClass[c])
		}
		if combined[c] > combined[best] {
			best = c
		}
	}
	return labels[best], combined, nil
}

// decodeTrees decodes the shard trees of a classification checkpoint.
func decodeTrees(golden string) ([]*core.MultiTree, error) {
	path, err := snapshotFile(golden)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return persist.DecodeMultiTrees(f)
}

// classGate classifies n holdout points over HTTP at base, directly on
// s, and on the reference trees; labels and scores must agree to the
// bit.
func classGate(c *http.Client, base string, s *server.Server, ref []*core.MultiTree, d *data, n int) error {
	for i := 0; i < n && i < len(d.holdout); i++ {
		x := d.holdout[i]
		body := appendPoint([]byte(`{"x":`), x)
		body = append(body, fmt.Sprintf(`,"budget":%d,"scores":true}`, classifyBudget)...)
		var wire server.Result
		if err := postJSON(c, base+"/classify", body, &wire); err != nil {
			return fmt.Errorf("gate: classify %d: %w", i, err)
		}
		direct, err := s.Classify(x, classifyBudget)
		if err != nil {
			return fmt.Errorf("gate: direct classify %d: %w", i, err)
		}
		label, scores, err := refClassify(ref, d.labels, x, classifyBudget)
		if err != nil {
			return fmt.Errorf("gate: reference classify %d: %w", i, err)
		}
		if wire.Label != direct.Label || wire.Label != label {
			return fmt.Errorf("gate: point %d: label http %d, direct %d, reference %d", i, wire.Label, direct.Label, label)
		}
		if !sameBits(wire.Scores, direct.Scores) || !sameBits(wire.Scores, scores) {
			return fmt.Errorf("gate: point %d: scores differ: http %v, direct %v, reference %v", i, wire.Scores, direct.Scores, scores)
		}
	}
	return nil
}

// clusterGate ingests n stream points over HTTP at base and into a
// reference engine decoded from the same checkpoint; every ingest
// answer and the final micro-cluster set must agree to the bit. It
// returns the number of acknowledged ingests.
func clusterGate(c *http.Client, base string, golden string, e *env, n int) (int, error) {
	path, err := snapshotFile(golden)
	if err != nil {
		return 0, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	ref, err := server.ClusterFromSnapshot(f, clusterConfig(), clusterOptions())
	f.Close()
	if err != nil {
		return 0, fmt.Errorf("gate: reference: %w", err)
	}
	defer ref.Close()
	acked := 0
	for i := 0; i < n; i++ {
		x, _ := e.writePoint(e.nextWrite)
		e.nextWrite++
		body := appendPoint([]byte(`{"x":`), x)
		body = append(body, fmt.Sprintf(`,"budget":%d}`, clusterBudget)...)
		var wire server.ClusterResult
		if err := postJSON(c, base+"/cluster", body, &wire); err != nil {
			return acked, fmt.Errorf("gate: cluster %d: %w", i, err)
		}
		acked++
		want, err := ref.Insert(x, clusterBudget)
		if err != nil {
			return acked, fmt.Errorf("gate: reference cluster %d: %w", i, err)
		}
		if wire != want {
			return acked, fmt.Errorf("gate: ingest %d: http %+v, reference %+v", i, wire, want)
		}
	}
	resp, err := c.Get(base + "/microclusters")
	if err != nil {
		return acked, err
	}
	defer resp.Body.Close()
	var wire struct {
		MicroClusters []struct {
			Weight float64
			Mean   []float64
			Radius float64
		} `json:"micro_clusters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return acked, fmt.Errorf("gate: microclusters: %w", err)
	}
	want := ref.MicroClusters(0)
	if len(wire.MicroClusters) != len(want) {
		return acked, fmt.Errorf("gate: %d micro-clusters over http, reference %d", len(wire.MicroClusters), len(want))
	}
	for i, m := range want {
		got := wire.MicroClusters[i]
		if !sameBits([]float64{got.Weight, got.Radius}, []float64{m.Weight, m.Radius}) || !sameBits(got.Mean, m.Mean) {
			return acked, fmt.Errorf("gate: micro-cluster %d differs from the reference", i)
		}
	}
	return acked, nil
}

// recoveryCheck closes the served instance without a checkpoint,
// reopens its directory through WAL recovery and checks that it holds
// the prefill plus every acknowledged write (writes whose outcome the
// client never learned may or may not be there).
func recoveryCheck(in *instance, base, acked, unknown int) error {
	if err := in.stop(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	class, cluster, err := openModel(in.dir, in.cluster != nil)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	re := &instance{class: class, cluster: cluster}
	got := re.observations()
	if err := re.closeModel(); err != nil {
		return err
	}
	if got < base+acked || got > base+acked+unknown {
		return fmt.Errorf("recovered %d observations, want %d prefill + %d acked (+ up to %d unknown)", got, base, acked, unknown)
	}
	return nil
}
