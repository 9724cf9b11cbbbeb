// Command serve runs one of the paper's two anytime workloads over HTTP
// on the shared serving engine:
//
//	serve class -dataset covertype -scale 0.05 -shards 4 -nps 200000
//	serve cluster -dim 2 -shards 4 -lambda 0.004
//
// 'serve class' is anytime classification over sharded Bayes trees,
// 'serve cluster' the Section-4.2 anytime clustering extension over
// sharded ClusTrees. Both share one skeleton: the same flags, the same
// validation and the same three lifecycles — a primary (warm-started
// from -snapshot, durable under -wal-dir, shipping its WAL on
// -replicate-addr), a read-only replica (-follow, promoted by SIGHUP or
// -promote-file) and a multi-tenant model registry (-tenants-dir). Each
// workload supplies only its defaults, its own flags and its model
// bootstrap; 'serve class -h' and 'serve cluster -h' list them.
//
// On SIGTERM or SIGINT the server drains gracefully: /readyz flips to
// 503 (/healthz, pure liveness, stays 200), in-flight requests finish
// within -drain, and the model is checkpointed to -wal-dir and written
// back to -snapshot if set.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/persist"
	"bayestree/internal/registry"
	"bayestree/internal/replica"
	"bayestree/internal/serve"
	"bayestree/internal/server"
)

func main() { os.Exit(run(os.Args[1:], os.Stderr)) }

const topUsage = "Usage: serve class|cluster [flags]\n\n" +
	"Serve an anytime workload over HTTP: 'serve class' for classification,\n" +
	"'serve cluster' for the Section-4.2 clustering extension.\n" +
	"Run 'serve class -h' or 'serve cluster -h' for the flags.\n"

// run is the command: it parses args (the subcommand first) and serves
// until a signal-triggered drain, returning the exit status — 0 after a
// clean drain, 1 on a runtime failure, 2 on a usage error.
func run(args []string, stderr io.Writer) int {
	c, err := parse(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The flags select the lifecycle.
	switch {
	case c.o.tenantsDir != "":
		err = c.w.tenants(c)
	case c.o.follow != "":
		err = c.serveFollower()
	default:
		err = c.servePrimary()
	}
	var ue usageError
	if errors.As(err, &ue) {
		c.usageError(ue)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// usageError marks configuration mistakes that print usage and exit
// with status 2 rather than 1.
type usageError string

func (e usageError) Error() string { return string(e) }

func usagef(format string, args ...interface{}) error {
	return usageError(fmt.Sprintf(format, args...))
}

// errParse reports a bad invocation that has already been printed.
var errParse = errors.New("bad invocation")

// workload is what a subcommand supplies to the shared skeleton.
type workload interface {
	// register adds the workload's own flags and returns its defaults
	// for the shared ones.
	register(fs *flag.FlagSet) defaults
	// config completes the engine config the shared flags built,
	// validating the workload's flags and its decay options.
	config(o *options, cfg *server.Config) error
	// primary opens the served model — durable under dopts when dopts
	// is non-nil — bootstrapping it from the flags when no checkpoint
	// exists. Configuration mistakes come back as usageErrors.
	primary(cfg server.Config, dopts *server.DurabilityOptions) (model, error)
	// follower opens a read-only replica of the primary at url.
	follower(dopts server.DurabilityOptions, cfg server.Config, url string) (follower, error)
	// tenants runs serveRegistry over the workload's backend.
	tenants(c *command) error
	// stats returns the opened model's engine stats.
	stats() server.Stats
}

// defaults are a workload's values for the shared flags whose defaults
// differ by workload.
type defaults struct {
	usage      string // the usage text between the Usage and Flags lines
	addr       string
	budget     int
	maxBudget  int
	tenantDim  int
	replica    string // the replica protocol's workload name
	lambdaFlag string // the decay-rate flag's name
	lambda     float64
	lambdaHelp string
}

// model is the surface of a served primary the lifecycle drives
// (*server.Server and *server.ClusterServer).
type model interface {
	Handler() http.Handler
	ReplicateHandler() http.Handler
	Recover() error
	Checkpoint() error
	CloseDurability() error
	Close()
	SetDraining(bool)
	WriteSnapshot(io.Writer) error
}

// follower is the surface of a replica the lifecycle drives
// (*server.Follower of either workload).
type follower interface {
	replica.Sink
	Epoch() uint64
	Handler() http.Handler
	SetDraining(bool)
	Close()
	Persist() error
	Promote() error
}

// options holds the flags every workload shares.
type options struct {
	addr, snapshot, walDir, follow, promoteFile, replAddr, tenantsDir string
	shards, budget, maxBudget, maxResident, tenantDim, tenantShards   int
	nps, burst, lambda, minWeight                                     float64
	maxResidentBytes                                                  int64
	drain, decayEvery, fsyncEvery                                     time.Duration
}

// command is one parsed invocation.
type command struct {
	name string // "serve class" or "serve cluster"
	w    workload
	d    defaults
	fs   *flag.FlagSet
	o    options
	cfg  server.Config
}

// parse parses and validates one invocation without opening anything:
// the subcommand picks the workload, whose defaults the shared flags
// take. Any error it returns has already been reported to stderr.
func parse(args []string, stderr io.Writer) (*command, error) {
	c := &command{}
	if len(args) > 0 {
		c.name, args = "serve "+args[0], args[1:]
	}
	switch c.name {
	case "serve class":
		c.w = &classWorkload{}
	case "serve cluster":
		c.w = &clusterWorkload{}
	default:
		fmt.Fprint(stderr, topUsage)
		if c.name == "serve -h" || c.name == "serve -help" || c.name == "serve help" {
			return nil, flag.ErrHelp
		}
		return nil, errParse
	}
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	d := c.w.register(fs)
	c.d = d
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: %s [flags]\n\n%s\nFlags:\n", c.name, d.usage)
		fs.PrintDefaults()
	}
	o := &c.o
	fs.StringVar(&o.addr, "addr", d.addr, "HTTP listen address")
	fs.IntVar(&o.shards, "shards", 4, "number of model shards (ignored when warm-starting from -snapshot)")
	fs.StringVar(&o.snapshot, "snapshot", "", "snapshot path: warm-start from it when present, write it back on drain")
	fs.IntVar(&o.budget, "budget", d.budget, "default per-request node budget when the request sets none")
	fs.IntVar(&o.maxBudget, "max-budget", d.maxBudget, "hard cap on any request's node budget")
	fs.Float64Var(&o.nps, "nps", 0, "admission capacity in node reads/second across all requests (0 = unlimited)")
	fs.Float64Var(&o.burst, "burst", 0, "admission bucket capacity in node reads (0 = max(nps, max-budget))")
	fs.Float64Var(&o.lambda, d.lambdaFlag, d.lambda, d.lambdaHelp)
	fs.Float64Var(&o.minWeight, "min-weight", 0.05, "maintenance pruning floor: mass whose decayed weight falls below it is forgotten (with -"+d.lambdaFlag+" > 0)")
	fs.DurationVar(&o.decayEvery, "decay-every", time.Minute, "wall-clock length of one decay epoch for the background maintenance sweep (with -"+d.lambdaFlag+" > 0)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "graceful drain timeout on SIGTERM/SIGINT")
	fs.StringVar(&o.walDir, "wal-dir", "", "durability directory: per-shard write-ahead log + checkpoint snapshots; writes survive crashes via snapshot+replay recovery")
	fs.DurationVar(&o.fsyncEvery, "fsync-every", 100*time.Millisecond, "WAL group-commit fsync interval; 0 fsyncs every write (with -wal-dir)")
	fs.StringVar(&o.follow, "follow", "", "run as a read-only replica of the primary at this base URL, e.g. http://host"+d.addr+" (requires -wal-dir; writes answer 307 to the primary)")
	fs.StringVar(&o.promoteFile, "promote-file", "", "promote this replica to primary when the file appears (SIGHUP promotes too; with -follow)")
	fs.StringVar(&o.replAddr, "replicate-addr", "", "serve the replication stream (/replicate) on a second listener at this address (with -wal-dir)")
	fs.StringVar(&o.tenantsDir, "tenants-dir", "", "multi-tenant mode: serve a registry of named models rooted at this directory (/t/{tenant}/...); excludes the single-model source and durability flags")
	fs.IntVar(&o.maxResident, "max-resident", 0, "multi-tenant: resident-model cap; LRU tenants beyond it are checkpointed and paged out (0 = registry default)")
	fs.Int64Var(&o.maxResidentBytes, "max-resident-bytes", 0, "multi-tenant: additional resident-memory cap in estimated bytes (0 = none)")
	fs.IntVar(&o.tenantDim, "tenant-default-dim", d.tenantDim, "multi-tenant: dimensionality of tenants created on first write")
	fs.IntVar(&o.tenantShards, "tenant-default-shards", 1, "multi-tenant: shard count of tenants created on first write")
	c.fs = fs
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return c, err
		}
		return c, errParse
	}
	if err := c.validate(); err != nil {
		c.usageError(err)
		return c, err
	}
	return c, nil
}

// usageError prints a usage error and the subcommand's usage.
func (c *command) usageError(err error) {
	fmt.Fprintf(c.fs.Output(), "%s: %v\n\n", c.name, err)
	c.fs.Usage()
}

// validate is the shared flag validation; the workload's own runs in
// its config. Every error it returns is a usageError.
func (c *command) validate() error {
	o, d := &c.o, c.d
	if c.fs.NArg() > 0 {
		return usagef("unexpected arguments %v", c.fs.Args())
	}
	c.cfg = server.Config{DefaultBudget: o.budget, MaxBudget: o.maxBudget, NodesPerSecond: o.nps, Burst: o.burst}
	if o.lambda < 0 {
		return usagef("-%s must be ≥ 0, got %v", d.lambdaFlag, o.lambda)
	}
	if o.lambda > 0 {
		if o.decayEvery <= 0 {
			return usagef("-decay-every must be > 0 with -%s set, got %v", d.lambdaFlag, o.decayEvery)
		}
		c.cfg.Decay = core.DecayOptions{Lambda: o.lambda, MinWeight: o.minWeight}
		c.cfg.DecayEvery = o.decayEvery
	}
	if err := c.w.config(o, &c.cfg); err != nil {
		return err
	}
	if o.tenantsDir != "" {
		if o.snapshot != "" || o.walDir != "" || o.follow != "" || o.replAddr != "" {
			return usagef("-tenants-dir is exclusive with -snapshot/-wal-dir/-follow/-replicate-addr")
		}
	} else if o.maxResident != 0 || o.maxResidentBytes != 0 {
		return usagef("-max-resident/-max-resident-bytes require -tenants-dir")
	}
	if o.follow != "" && o.walDir == "" {
		return usagef("-follow requires -wal-dir (the replica's own durable state)")
	}
	if o.promoteFile != "" && o.follow == "" {
		return usagef("-promote-file only applies to a replica (-follow)")
	}
	if o.replAddr != "" && o.walDir == "" {
		return usagef("-replicate-addr requires -wal-dir (replication ships the WAL)")
	}
	if (o.walDir != "" || o.tenantsDir != "") && o.fsyncEvery < 0 {
		return usagef("-fsync-every must be ≥ 0, got %v", o.fsyncEvery)
	}
	return nil
}

// app is the serve.App fields every lifecycle shares.
func (c *command) app(h http.Handler, setDraining func(bool)) serve.App {
	return serve.App{Name: c.name, Addr: c.o.addr, Handler: h, DrainTimeout: c.o.drain, SetDraining: setDraining}
}

// servePrimary runs a primary: the model opened (durable under
// -wal-dir, recovering in the background while /readyz reports 503)
// and served until a drain checkpoints it and writes -snapshot.
func (c *command) servePrimary() error {
	o := &c.o
	var dopts *server.DurabilityOptions
	if o.walDir != "" {
		dopts = &server.DurabilityOptions{Dir: o.walDir, FsyncEvery: o.fsyncEvery}
	}
	s, err := c.w.primary(c.cfg, dopts)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	st := c.w.stats()
	log.Printf("%s: serving %d observations over %d shards on %s (default budget %d, admission %s, decay %s, wal %s)",
		c.name, st.Observations, st.Shards, o.addr, o.budget, admissionDesc(o.nps), c.decayDesc(st), walDesc(o.walDir, o.fsyncEvery))
	app := c.app(s.Handler(), s.SetDraining)
	app.Close = s.Close
	if dopts != nil {
		app.Recover = func() error {
			if err := s.Recover(); err != nil {
				return err
			}
			st := c.w.stats()
			log.Printf("recovery complete: %d WAL records replayed (%d torn dropped), generation %d, %d observations",
				st.WALReplayed, st.WALDroppedRecords, st.SnapshotGeneration, st.Observations)
			return nil
		}
	}
	if o.replAddr != "" {
		app.ReplicateAddr, app.ReplicateHandler = o.replAddr, s.ReplicateHandler()
	}
	app.Persist = func() error {
		if dopts != nil {
			if err := s.Checkpoint(); err != nil {
				return err
			}
			if err := s.CloseDurability(); err != nil {
				return err
			}
			log.Printf("final checkpoint written to %s (%d observations)", o.walDir, c.w.stats().Observations)
		}
		if o.snapshot != "" {
			if err := persist.WriteFileAtomic(o.snapshot, s.WriteSnapshot); err != nil {
				return err
			}
			log.Printf("snapshot written to %s (%d observations)", o.snapshot, c.w.stats().Observations)
		}
		return nil
	}
	return serve.Run(app)
}

// serveFollower runs a replica: a Follower over the durable directory,
// a Tailer pumping the primary's stream into it, and the serve loop
// with the promote triggers armed.
func (c *command) serveFollower() error {
	o := &c.o
	f, err := c.w.follower(server.DurabilityOptions{Dir: o.walDir, FsyncEvery: o.fsyncEvery}, c.cfg, o.follow)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	t := replica.New(f, replica.Options{PrimaryURL: o.follow, Workload: c.d.replica, Epoch: f.Epoch})
	t.Start()
	hint := ""
	if o.promoteFile != "" {
		hint = " or by creating " + o.promoteFile
	}
	log.Printf("%s: following %s (wal %s); promote with SIGHUP%s", c.name, o.follow, o.walDir, hint)
	app := c.app(f.Handler(), f.SetDraining)
	app.Close = f.Close
	app.Persist = func() error {
		t.Stop()
		return f.Persist()
	}
	app.Promote = func() error {
		t.Stop()
		return f.Promote()
	}
	app.PromoteFile = o.promoteFile
	if o.replAddr != "" {
		// Only /replicate of the follower's handler, live once it is
		// promoted (or for chained replication).
		mux := http.NewServeMux()
		mux.Handle("/replicate", f.Handler())
		app.ReplicateAddr, app.ReplicateHandler = o.replAddr, mux
	}
	return serve.Run(app)
}

// serveRegistry runs the multi-tenant lifecycle: a model registry over
// the tenants directory, served until a drain checkpoints every loaded
// tenant back to disk. labels is the class label set of new tenants.
func serveRegistry[T registry.Tenant](c *command, backend registry.Backend[T], labels []int) error {
	o := &c.o
	defaults := registry.TenantConfig{Dim: o.tenantDim, Labels: labels, Shards: o.tenantShards, DefaultBudget: o.budget, MaxBudget: o.maxBudget}
	if o.lambda > 0 {
		defaults.DecayLambda = o.lambda
		defaults.DecayMinWeight = o.minWeight
		defaults.DecayEveryMS = o.decayEvery.Milliseconds()
	}
	r, err := registry.Open(registry.Options{
		Dir:              o.tenantsDir,
		MaxResident:      o.maxResident,
		MaxResidentBytes: o.maxResidentBytes,
		NodesPerSecond:   o.nps,
		FsyncEvery:       o.fsyncEvery,
		Defaults:         defaults,
	}, backend)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	log.Printf("%s: serving %d tenants (0 resident) from %s on %s (max resident %d, admission %s)",
		c.name, r.Tenants(), o.tenantsDir, o.addr, r.Stats().MaxResident, admissionDesc(o.nps))
	app := c.app(r.Handler(), r.SetDraining)
	app.Persist = func() error {
		// Drain = checkpoint-all: every loaded tenant is paged out through
		// the eviction path, then the manifest gets its final save.
		if err := r.Close(); err != nil {
			return err
		}
		log.Printf("drained: %d tenants checkpointed to %s", r.Tenants(), o.tenantsDir)
		return nil
	}
	return serve.Run(app)
}

// warmStart decodes the -snapshot file at path. ok is false (and err
// nil) when there is none yet, so the caller bootstraps instead.
func warmStart[S any](path string, decode func(io.Reader) (S, error)) (s S, ok bool, err error) {
	if path == "" {
		return s, false, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		log.Printf("snapshot %s does not exist yet; bootstrapping", path)
		return s, false, nil
	}
	if err != nil {
		return s, true, err
	}
	defer f.Close()
	if s, err = decode(f); err != nil {
		return s, true, fmt.Errorf("snapshot %s: %w", path, err)
	}
	log.Printf("warm start from %s", path)
	return s, true, nil
}

// parseLabelList parses a comma-separated class label set.
func parseLabelList(s string) ([]int, error) {
	var labels []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad label %q", part)
		}
		labels = append(labels, v)
	}
	if len(labels) < 2 {
		return nil, fmt.Errorf("need at least two labels, got %v", labels)
	}
	return labels, nil
}

// decayDesc describes the decay state the server actually runs with —
// which may come from a warm-started snapshot rather than the flags. A
// decayed snapshot loaded without the decay-rate flag keeps fading but
// advances no epochs, which deserves a loud hint, not "off".
func (c *command) decayDesc(st server.Stats) string {
	switch {
	case !st.DecayEnabled:
		return "off"
	case c.o.lambda <= 0:
		return fmt.Sprintf("snapshot state at epoch %d — no maintenance loop; pass -%s/-decay-every to resume forgetting", st.DecayEpoch, c.d.lambdaFlag)
	}
	return fmt.Sprintf("λ=%g floor=%g epoch=%v", c.o.lambda, c.o.minWeight, c.o.decayEvery)
}

// admissionDesc describes the admission capacity for log lines.
func admissionDesc(nps float64) string {
	if nps <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.0f node reads/s", nps)
}

// walDesc describes the durability mode for the startup log line.
func walDesc(dir string, fsyncEvery time.Duration) string {
	if dir == "" {
		return "off"
	}
	if fsyncEvery == 0 {
		return fmt.Sprintf("%s (fsync per write)", dir)
	}
	return fmt.Sprintf("%s (group commit %v)", dir, fsyncEvery)
}
