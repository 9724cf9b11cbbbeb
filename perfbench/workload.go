package main

import (
	"fmt"
	"math/rand"
	"time"

	"bayestree/internal/dataset"
)

// opKind is one request type of a traffic mix.
type opKind uint8

const (
	opClassify opKind = iota // POST /classify, one point, budget 50
	opInsert                 // POST /insert, one labelled point
	opCluster                // POST /cluster, one unlabelled point
	opMacro                  // GET /macroclusters
)

// isRead reports whether the request is a read (the rest are writes).
func (k opKind) isRead() bool { return k == opClassify || k == opMacro }

const (
	// classifyBudget is the node-read budget every /classify asks for.
	classifyBudget = 50
	// clusterBudget is the descent budget of /cluster (servecluster's
	// default, sent explicitly).
	clusterBudget = 8
	// macroEps and macroMinW are the /macroclusters parameters
	// (servecluster's defaults, sent explicitly).
	macroEps  = 0.1
	macroMinW = 1.0
)

// workload is one traffic mix against one model. rate and limit were
// calibrated once on the commit that introduced the benchmark and are
// never recalibrated: rate is about half of that commit's sustained_rps,
// and limit is the p99 latency limit of the sustained-rate search.
type workload struct {
	name    string
	cluster bool
	rate    float64
	limit   time.Duration
	// next draws the kind of a scheduled request.
	next func(rng *rand.Rand) opKind
}

var workloads = []workload{
	{
		name: "serve-read", rate: 2000, limit: 200 * time.Millisecond,
		next: func(rng *rand.Rand) opKind {
			if rng.Float64() < 0.05 {
				return opInsert
			}
			return opClassify
		},
	},
	{
		name: "cluster-ingest", cluster: true, rate: 4500, limit: 200 * time.Millisecond,
		next: func(rng *rand.Rand) opKind {
			if rng.Float64() < 0.01 {
				return opMacro
			}
			return opCluster
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want serve-read|cluster-ingest)", name)
}

// modelSeed fixes the generator of the covertype stand-in, so every
// run and seed serves the same prefilled model (built once per source
// tree and cached); the run seed decides the traffic.
const modelSeed = 420004

// data is a run's inputs: the prefill the model is built from, the
// holdout points reads are drawn from, and the stream writes consume.
type data struct {
	dim      int
	labels   []int
	prefill  [][]float64
	prefillY []int
	holdout  [][]float64
	holdoutY []int
	stream   [][]float64
	streamY  []int
}

// makeData draws prefill+pool points from the covertype stand-in
// (10 dimensions, 7 skewed classes, one noise dimension). The first
// holdout pool points are the fixed evaluation set reads walk through
// in order, so accuracy is always measured on the same points; the run
// seed shuffles the rest into the write stream.
func makeData(prefill, pool, holdout int, seed int64) (*data, error) {
	ds, err := dataset.Synthetic(dataset.SyntheticSpec{
		Name: "covertype", Size: prefill + pool, Classes: 7, Features: 10,
		ModesPerClass: 6, Spread: 0.10, Overlap: 0.40, DominantWeight: 0.40,
		Skew: 0.8, NoiseDims: 1, Seed: modelSeed,
	})
	if err != nil {
		return nil, err
	}
	d := &data{dim: ds.Dim(), labels: ds.Classes()}
	d.prefill, d.prefillY = ds.X[:prefill], ds.Y[:prefill]
	d.holdout, d.holdoutY = ds.X[prefill:prefill+holdout], ds.Y[prefill:prefill+holdout]
	rest := prefill + holdout
	for _, p := range rand.New(rand.NewSource(seed)).Perm(pool - holdout) {
		d.stream = append(d.stream, ds.X[rest+p])
		d.streamY = append(d.streamY, ds.Y[rest+p])
	}
	return d, nil
}
