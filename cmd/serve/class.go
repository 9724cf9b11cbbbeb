package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/dataset"
	"bayestree/internal/registry"
	"bayestree/internal/replica"
	"bayestree/internal/server"
)

// classWorkload is 'serve class': anytime classification from a sharded
// multi-class Bayes tree model.
type classWorkload struct {
	dataset, emptyLabels, tenantLabels string
	strategy, priority                 string
	scale                              float64
	emptyDim                           int
	seed                               int64
	pooled, entropy                    bool

	o      *options
	labels []int // the parsed -tenant-default-labels
	s      *server.Server
}

const classUsage = `Serve anytime classification over HTTP from a sharded Bayes tree model.
Model source: -snapshot (warm start), -dataset (bootstrap), or -empty-dim
(start empty and let ingest traffic build the model); one is required.
-decay-lambda enables exponential forgetting (concept-drift tracking with
bounded memory); -decay-every sets the epoch length and -min-weight the
maintenance sweep's pruning floor.
-wal-dir makes ingest durable: every insert is appended to a per-shard
write-ahead log (group-committed every -fsync-every), recovery replays the
log tail over the latest checkpoint, and a drain checkpoints + truncates.
-follow runs a read-only replica of a primary: it bootstraps from the
primary's checkpoint, tails its WAL stream, and can be promoted with
SIGHUP or -promote-file when the primary dies.
-tenants-dir serves a multi-tenant model registry instead: named models
at /t/{tenant}/classify etc., created on first write (or PUT /t/{tenant}),
each durable in its own subdirectory, LRU-paged to disk beyond
-max-resident; the legacy routes alias the 'default' tenant.

Endpoints:
  POST /classify   {"x":[...],"budget":25}; NDJSON body streams a batch
  POST /insert     {"x":[...],"label":2}; NDJSON body bulk-ingests
  GET  /stats      shard sizes, admission, WAL and replication counters
  GET  /healthz    liveness: 200 once listening
  GET  /readyz     readiness: 503 while recovering or draining
  GET  /replicate  replication stream (checkpoint + live WAL tail)
`

func (c *classWorkload) register(fs *flag.FlagSet) defaults {
	fs.StringVar(&c.dataset, "dataset", "", "bootstrap data set when no snapshot exists (pendigits|letter|gender|covertype)")
	fs.Float64Var(&c.scale, "scale", 0.05, "bootstrap data set scale in (0,1]")
	fs.IntVar(&c.emptyDim, "empty-dim", 0, "bootstrap an empty model of this dimensionality when no snapshot or dataset is given — the model is built entirely by ingest traffic")
	fs.StringVar(&c.emptyLabels, "empty-labels", "0,1,2", "comma-separated class label set of an -empty-dim bootstrap")
	fs.Int64Var(&c.seed, "seed", 42, "bootstrap shuffle seed")
	fs.StringVar(&c.strategy, "strategy", "glo", "descent strategy glo|bft|dft")
	fs.StringVar(&c.priority, "priority", "prob", "descent priority prob|geom")
	fs.BoolVar(&c.pooled, "pooled", false, "bootstrap trees with pooled per-entry variance")
	fs.BoolVar(&c.entropy, "entropy", false, "bootstrap trees with entropy-weighted descent priority")
	fs.StringVar(&c.tenantLabels, "tenant-default-labels", "0,1,2", "multi-tenant: comma-separated label set of tenants created on first write")
	return defaults{
		usage: classUsage, addr: ":8080", budget: 32, maxBudget: server.DefaultMaxBudget,
		tenantDim: 3, replica: replica.WorkloadClassify,
		lambdaFlag: "decay-lambda", lambda: 0,
		lambdaHelp: "concept-drift forgetting rate λ: weights fade 2^(-λ) per decay epoch (0 = append-only, never forget)",
	}
}

func (c *classWorkload) config(o *options, cfg *server.Config) error {
	c.o = o
	var ok bool
	if cfg.Query.Strategy, ok = parseStrategy(c.strategy); !ok {
		return usagef("unknown strategy %q (want glo|bft|dft)", c.strategy)
	}
	if cfg.Query.Priority, ok = parsePriority(c.priority); !ok {
		return usagef("unknown priority %q (want prob|geom)", c.priority)
	}
	if cfg.Decay.Enabled() {
		if err := cfg.Decay.Validate(); err != nil {
			return usageError(err.Error())
		}
	}
	if o.tenantsDir != "" {
		if c.dataset != "" {
			return usagef("-tenants-dir is exclusive with -dataset")
		}
		labels, err := parseLabelList(c.tenantLabels)
		if err != nil {
			return usagef("-tenant-default-labels: %v", err)
		}
		c.labels = labels
	}
	return nil
}

func (c *classWorkload) primary(cfg server.Config, dopts *server.DurabilityOptions) (model, error) {
	var err error
	if dopts == nil {
		c.s, err = c.bootstrap(cfg)
	} else {
		c.s, err = server.OpenDurableServer(*dopts, cfg, func() (*server.Server, error) { return c.bootstrap(cfg) })
	}
	return c.s, err
}

// bootstrap resolves the model source: an existing snapshot wins,
// otherwise a data set is bootstrapped into empty shards via the same
// hash routing online inserts use, or the shards start empty.
func (c *classWorkload) bootstrap(cfg server.Config) (*server.Server, error) {
	o := c.o
	if s, ok, err := warmStart(o.snapshot, func(r io.Reader) (*server.Server, error) { return server.FromSnapshot(r, cfg) }); ok {
		return s, err
	}
	if o.shards < 1 {
		return nil, usagef("-shards must be ≥ 1, got %d", o.shards)
	}
	mopts := core.MultiOptions{PooledVariance: c.pooled, EntropyPriority: c.entropy}
	if c.dataset == "" {
		if c.emptyDim <= 0 {
			return nil, usagef("need -snapshot (existing), -dataset or -empty-dim to build a model")
		}
		labels, err := parseLabelList(c.emptyLabels)
		if err != nil {
			return nil, usagef("-empty-labels: %v", err)
		}
		s, err := server.NewEmpty(o.shards, core.DefaultConfig(c.emptyDim), labels, mopts, cfg)
		if err != nil {
			return nil, err
		}
		log.Printf("bootstrapped empty model: %d dims, %d classes, %d shards — awaiting ingest", c.emptyDim, len(labels), o.shards)
		return s, nil
	}
	ds, err := dataset.ByName(c.dataset, c.scale)
	if err != nil {
		return nil, usageError(err.Error())
	}
	ds.Shuffle(c.seed)
	s, err := server.NewEmpty(o.shards, core.DefaultConfig(ds.Dim()), ds.Classes(), mopts, cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 0; i < ds.Len(); i++ {
		if err := s.Insert(ds.X[i], ds.Y[i]); err != nil {
			return nil, fmt.Errorf("bootstrap insert %d: %w", i, err)
		}
	}
	log.Printf("bootstrapped %s: %d observations, %d classes, %d dims into %d shards in %v",
		ds.Name, ds.Len(), len(ds.Classes()), ds.Dim(), o.shards, time.Since(start).Round(time.Millisecond))
	return s, nil
}

func (c *classWorkload) follower(dopts server.DurabilityOptions, cfg server.Config, url string) (follower, error) {
	return server.NewFollowerServer(dopts, cfg, url)
}

func (c *classWorkload) tenants(cmd *command) error {
	return serveRegistry(cmd, registry.ClassifyBackend(), c.labels)
}

func (c *classWorkload) stats() server.Stats { return c.s.Stats() }

func parseStrategy(s string) (core.Strategy, bool) {
	switch s {
	case "glo", "global":
		return core.DescentGlobal, true
	case "bft", "breadth":
		return core.DescentBFT, true
	case "dft", "depth":
		return core.DescentDFT, true
	}
	return 0, false
}

func parsePriority(s string) (core.Priority, bool) {
	switch s {
	case "prob", "probabilistic":
		return core.PriorityProbabilistic, true
	case "geom", "geometric":
		return core.PriorityGeometric, true
	}
	return 0, false
}
