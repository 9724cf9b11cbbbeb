// Serving: stand up the sharded anytime classification server
// in-process, ingest a labelled stream while serving reads, snapshot
// the model, warm-start a second server from the snapshot and verify
// it answers digit-identically — the full serving lifecycle without
// leaving one process. `serve class` (cmd/serve) wraps the same pieces
// behind HTTP; see ARCHITECTURE.md for the design.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"bayestree/internal/core"
	"bayestree/internal/server"
	"bayestree/internal/stream"
)

func main() {
	// A 4-shard server over an empty 3-class model: every observation
	// arrives online, hash-routed to one shard. The admission controller
	// caps aggregate refinement at 100k node reads/second.
	srv, err := server.NewEmpty(4, core.DefaultConfig(3), []int{0, 1, 2},
		core.MultiOptions{}, server.Config{DefaultBudget: 40, NodesPerSecond: 100_000})
	if err != nil {
		log.Fatal(err)
	}

	// Ingest-while-serving: the server implements stream.Engine, so the
	// windowed stream runner drives it directly — each window is
	// classified in parallel with the budgets its arrival gaps allow,
	// then the window's labels are inserted.
	rng := rand.New(rand.NewSource(3))
	items := make([]stream.Item, 3000)
	for i := range items {
		label := rng.Intn(3)
		items[i] = stream.Item{
			X: []float64{
				float64(label)*2.5 + 0.5*rng.NormFloat64(),
				-float64(label)*2.5 + 0.5*rng.NormFloat64(),
				rng.NormFloat64(),
			},
			Label:   label,
			Labeled: true,
		}
	}
	// Cold start: a classifier with no observations cannot answer, so the
	// first handful of labelled arrivals is inserted directly before the
	// classify-and-learn stream begins.
	const seedN = 100
	for _, it := range items[:seedN] {
		if err := srv.Insert(it.X, it.Label); err != nil {
			log.Fatal(err)
		}
	}
	res, err := stream.RunBatch(srv, items[seedN:], stream.Poisson{Rate: 500},
		stream.Budgeter{NodesPerSecond: 20_000, MaxNodes: 100}, 1, 64, 4)
	if err != nil {
		log.Fatal(err)
	}
	st := srv.Stats()
	fmt.Printf("ingested %d objects (online accuracy %.3f) into shards %v\n",
		seedN+res.Learned, res.Accuracy, st.ShardSizes)

	// Snapshot the live model and warm-start a replica from it.
	var snap bytes.Buffer
	if err := srv.WriteSnapshot(&snap); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes for %d observations\n", snap.Len(), st.Observations)
	replica, err := server.FromSnapshot(&snap, server.Config{DefaultBudget: 40})
	if err != nil {
		log.Fatal(err)
	}

	// The replica answers digit-identically to the original.
	identical := true
	for i := 0; i < 500; i++ {
		x := items[rng.Intn(len(items))].X
		a, err1 := srv.Classify(x, 40)
		b, err2 := replica.Classify(x, 40)
		if err1 != nil || err2 != nil {
			log.Fatal(err1, err2)
		}
		if a.Label != b.Label || a.NodesRead != b.NodesRead {
			identical = false
		}
	}
	fmt.Println("warm-started replica digit-identical:", identical)
}
