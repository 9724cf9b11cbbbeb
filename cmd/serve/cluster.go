package main

import (
	"flag"
	"io"

	"bayestree/internal/clustree"
	"bayestree/internal/registry"
	"bayestree/internal/replica"
	"bayestree/internal/server"
)

// clusterWorkload is 'serve cluster': the Section-4.2 anytime
// clustering extension from a sharded ClusTree model.
type clusterWorkload struct {
	dim, snapEvery, snapAlpha, snapCap int

	o *options
	s *server.ClusterServer
}

const clusterUsage = `Serve the Section-4.2 anytime clustering extension over HTTP from a sharded
ClusTree model. Model source: -snapshot (warm start) or -dim (empty start);
one is required. Each ingested object descends with an anytime budget —
under overload objects park in inner-node buffers and hitchhike leafward
later, so the stream never backs up. -lambda sets exponential forgetting
per stream object; the background sweep prunes micro-clusters below
-min-weight every -decay-every. -wal-dir makes ingest durable: objects are
appended to a per-shard write-ahead log (group-committed every
-fsync-every) and recovery replays the log tail over the latest
checkpoint. -follow and -tenants-dir work as for 'serve class'.

Examples:
  serve cluster -dim 2 -shards 4 -lambda 0.004
  serve cluster -snapshot clusters.btsn -nps 50000

Endpoints:
  POST /cluster        {"x":[...],"budget":3}; NDJSON body bulk-ingests
  GET  /microclusters  ?minw=0.5    current micro-clusters
  GET  /macroclusters  ?eps=&minw=  density-based offline clustering
  GET  /window         ?t1=&t2=     historical view via pyramidal snapshots
  GET  /stats          shard sizes, parked/merge/split, admission and replication counters
  GET  /healthz        liveness: 200 once listening
  GET  /readyz         readiness: 503 while recovering or draining
  GET  /replicate      replication stream (checkpoint + live WAL tail)
`

func (c *clusterWorkload) register(fs *flag.FlagSet) defaults {
	fs.IntVar(&c.dim, "dim", 0, "observation dimensionality when no snapshot exists")
	fs.IntVar(&c.snapEvery, "snap-every", 1024, "record a pyramidal micro-cluster snapshot every N ingested objects (< 0 disables /window)")
	fs.IntVar(&c.snapAlpha, "snap-alpha", 2, "pyramidal store base (granularity coarsens by this factor per order)")
	fs.IntVar(&c.snapCap, "snap-cap", 0, "pyramidal store per-order capacity (0 = alpha+1)")
	return defaults{
		usage: clusterUsage, addr: ":8081", budget: 8, maxBudget: 64,
		tenantDim: 2, replica: replica.WorkloadCluster,
		lambdaFlag: "lambda", lambda: 0.004,
		lambdaHelp: "decay rate: a weight halves every 1/λ stream objects (0 = never forget)",
	}
}

func (c *clusterWorkload) config(o *options, cfg *server.Config) error {
	c.o = o
	// No core.DecayOptions.Validate here: its MinWeight < 1 bound is a
	// classifier rule (fresh observations weigh 1); micro-cluster floors
	// are decayed object counts and may usefully exceed 1.
	if cfg.Decay.Enabled() && o.minWeight < 0 {
		return usagef("-min-weight must be ≥ 0, got %v", o.minWeight)
	}
	return nil
}

func (c *clusterWorkload) copts() server.ClusterOptions {
	return server.ClusterOptions{SnapshotAlpha: c.snapAlpha, SnapshotCapacity: c.snapCap, SnapshotEvery: c.snapEvery}
}

func (c *clusterWorkload) primary(cfg server.Config, dopts *server.DurabilityOptions) (model, error) {
	var err error
	if dopts == nil {
		c.s, err = c.bootstrap(cfg)
	} else {
		c.s, err = server.OpenDurableCluster(*dopts, cfg, c.copts(), func() (*server.ClusterServer, error) { return c.bootstrap(cfg) })
	}
	return c.s, err
}

// bootstrap resolves the model source: an existing snapshot wins,
// otherwise empty shards over the flag dimensionality.
func (c *clusterWorkload) bootstrap(cfg server.Config) (*server.ClusterServer, error) {
	o := c.o
	if s, ok, err := warmStart(o.snapshot, func(r io.Reader) (*server.ClusterServer, error) {
		return server.ClusterFromSnapshot(r, cfg, c.copts())
	}); ok {
		return s, err
	}
	if c.dim < 1 {
		return nil, usagef("need -snapshot (existing) or -dim ≥ 1 to build a model")
	}
	if o.shards < 1 {
		return nil, usagef("-shards must be ≥ 1, got %d", o.shards)
	}
	ccfg := clustree.DefaultConfig(c.dim)
	ccfg.Lambda = cfg.Decay.Lambda // 0 unless -lambda enabled decay
	return server.NewCluster(ccfg, o.shards, cfg, c.copts())
}

func (c *clusterWorkload) follower(dopts server.DurabilityOptions, cfg server.Config, url string) (follower, error) {
	return server.NewFollowerCluster(dopts, cfg, c.copts(), url)
}

func (c *clusterWorkload) tenants(cmd *command) error {
	return serveRegistry(cmd, registry.ClusterBackend(c.copts()), nil)
}

func (c *clusterWorkload) stats() server.Stats { return c.s.Stats().Stats }
