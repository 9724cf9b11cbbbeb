package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"bayestree/internal/clustree"
	"bayestree/internal/core"
	"bayestree/internal/persist"
	"bayestree/internal/server"
)

const (
	// shards is the shard count of both served models.
	shards = 4
	// fsyncEvery is the WAL group-commit interval (the serving commands'
	// default).
	fsyncEvery = 100 * time.Millisecond
	// clusterLambda is servecluster's default decay rate.
	clusterLambda = 0.004
)

// classConfig is serveclass's default engine configuration: no
// admission limit, default budget 32.
func classConfig() server.Config {
	return server.Config{DefaultBudget: 32, MaxBudget: server.DefaultMaxBudget}
}

// clusterConfig is servecluster's default engine configuration, except
// that the decay maintenance sweep is driven by the benchmark (see
// maintain) instead of the engine's own loop, so the correctness gate
// runs against a model no sweep can touch mid-check.
func clusterConfig() server.Config {
	return server.Config{
		DefaultBudget: clusterBudget, MaxBudget: 64,
		Decay: core.DecayOptions{Lambda: clusterLambda, MinWeight: 0.05},
	}
}

// maintainEvery is the decay maintenance interval of the clustering
// workload. servecluster's default is a minute; one second keeps the
// micro-cluster population at its steady state within a run instead
// of letting it grow for the run's whole length.
const maintainEvery = time.Second

// maintain runs the clustering engine's decay maintenance sweep every
// maintainEvery until the returned stop function is called; stop
// returns once the loop has exited.
func maintain(s *server.ClusterServer) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(maintainEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.AdvanceDecay()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// clusterOptions is servecluster's default pyramidal store.
func clusterOptions() server.ClusterOptions {
	return server.ClusterOptions{SnapshotAlpha: 2, SnapshotEvery: 1024}
}

func durability(dir string) server.DurabilityOptions {
	return server.DurabilityOptions{Dir: dir, FsyncEvery: fsyncEvery}
}

var errNoBootstrap = errors.New("durability directory holds no checkpoint")

// modelCache builds the prefilled models once per source tree and keeps
// them under dir: a checkpointed durability directory per workload
// family and single-tree snapshots for the model-size sweep. Building
// is untimed; every run starts from a copy.
type modelCache struct {
	dir string
	d   *data
}

// ensure returns path, first building it with build(tmp) into a
// temporary sibling that is renamed into place, so a run cut short
// never leaves a half-built model behind.
func (m *modelCache) ensure(name string, build func(tmp string) error) (string, error) {
	path := filepath.Join(m.dir, name)
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return "", err
	}
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := build(tmp); err != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("build %s: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.RemoveAll(tmp)
		return "", err
	}
	return path, nil
}

// prefillTrees inserts points into n fresh multi-class trees, routed
// the way the server routes inserts.
func prefillTrees(d *data, points int, n int) ([]*core.MultiTree, error) {
	trees := make([]*core.MultiTree, n)
	for i := range trees {
		t, err := core.NewMultiTree(core.DefaultConfig(d.dim), d.labels, core.MultiOptions{})
		if err != nil {
			return nil, err
		}
		trees[i] = t
	}
	for i := 0; i < points; i++ {
		if err := trees[server.RouteShard(d.prefill[i], n)].Insert(d.prefill[i], d.prefillY[i]); err != nil {
			return nil, err
		}
	}
	return trees, nil
}

// classModel is the durability directory of the prefilled
// classification model.
func (m *modelCache) classModel() (string, error) {
	return m.ensure(fmt.Sprintf("class-%d", len(m.d.prefill)), func(tmp string) error {
		trees, err := prefillTrees(m.d, len(m.d.prefill), shards)
		if err != nil {
			return err
		}
		s, err := server.OpenDurableServer(durability(tmp), classConfig(), func() (*server.Server, error) {
			return server.New(trees, classConfig())
		})
		if err != nil {
			return err
		}
		return finishGolden(s.Recover, s.Close, s.CloseDurability)
	})
}

// clusterModel is the durability directory of the prefilled clustering
// model: the prefill stream ingested at the serving budget.
func (m *modelCache) clusterModel() (string, error) {
	return m.ensure(fmt.Sprintf("cluster-%d", len(m.d.prefill)), func(tmp string) error {
		s, err := server.OpenDurableCluster(durability(tmp), clusterConfig(), clusterOptions(), func() (*server.ClusterServer, error) {
			ccfg := clustree.DefaultConfig(m.d.dim)
			ccfg.Lambda = clusterLambda
			s, err := server.NewCluster(ccfg, shards, clusterConfig(), clusterOptions())
			if err != nil {
				return nil, err
			}
			for _, x := range m.d.prefill {
				if _, err := s.Insert(x, clusterBudget); err != nil {
					s.Close()
					return nil, err
				}
			}
			// Serve the model as maintenance leaves it: decayed-out
			// micro-clusters pruned.
			s.AdvanceDecay()
			return s, nil
		})
		if err != nil {
			return err
		}
		return finishGolden(s.Recover, s.Close, s.CloseDurability)
	})
}

// finishGolden turns a freshly bootstrapped durable server into a
// checkpointed directory (Recover checkpoints a fresh directory) and
// releases it.
func finishGolden(recover func() error, stop func(), closeDur func() error) error {
	err := recover()
	stop()
	if cerr := closeDur(); err == nil {
		err = cerr
	}
	return err
}

// sweepTree is the snapshot file of one single-shard tree of the first
// n prefill points — a point of the model-size sweep.
func (m *modelCache) sweepTree(n int) (string, error) {
	return m.ensure(fmt.Sprintf("sweep-%d.btsn", n), func(tmp string) error {
		trees, err := prefillTrees(m.d, n, 1)
		if err != nil {
			return err
		}
		return persist.WriteFileAtomic(tmp, func(w io.Writer) error {
			return persist.EncodeMultiTree(w, trees[0])
		})
	})
}

// snapshotFile returns the checkpoint snapshot a durability directory's
// manifest names.
func snapshotFile(dir string) (string, error) {
	man, ok, err := persist.LoadManifest(dir)
	if err != nil {
		return "", err
	}
	if !ok || man.Snapshot == "" {
		return "", errNoBootstrap
	}
	return filepath.Join(dir, man.Snapshot), nil
}

// copyDir copies the regular files of a durability directory tree and
// syncs every copied file and directory to disk, so writing the copy
// back is over before set-up is timed: the first fsync the engine makes
// while opening its WAL would otherwise wait for it.
func copyDir(src, dst string) error {
	var dirs []string
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			dirs = append(dirs, target)
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		if err := out.Sync(); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		return err
	}
	// Deepest first, then the parent of dst, which records dst itself.
	for i := len(dirs) - 1; i >= 0; i-- {
		if err := syncDir(dirs[i]); err != nil {
			return err
		}
	}
	return syncDir(filepath.Dir(dst))
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// instance is one served model: the durable engine, its HTTP server on
// a loopback port, and the middleware that records handler spans in
// traced phases.
type instance struct {
	dir     string
	class   *server.Server
	cluster *server.ClusterServer
	mw      *middleware
	srv     *http.Server
	done    chan error
	base    string
}

// openModel opens a durability directory through recovery (WAL replay)
// as a classification or clustering engine.
func openModel(dir string, cluster bool) (*server.Server, *server.ClusterServer, error) {
	noBoot := func() error { return fmt.Errorf("%s: %w", dir, errNoBootstrap) }
	if cluster {
		s, err := server.OpenDurableCluster(durability(dir), clusterConfig(), clusterOptions(),
			func() (*server.ClusterServer, error) { return nil, noBoot() })
		if err != nil {
			return nil, nil, err
		}
		if err := s.Recover(); err != nil {
			s.Close()
			s.CloseDurability()
			return nil, nil, err
		}
		return nil, s, nil
	}
	s, err := server.OpenDurableServer(durability(dir), classConfig(),
		func() (*server.Server, error) { return nil, noBoot() })
	if err != nil {
		return nil, nil, err
	}
	if err := s.Recover(); err != nil {
		s.Close()
		s.CloseDurability()
		return nil, nil, err
	}
	return s, nil, nil
}

// serveModel opens a durability directory through recovery and serves
// it on a loopback port.
func serveModel(dir string, cluster bool) (*instance, error) {
	in := &instance{dir: dir, done: make(chan error, 1)}
	var err error
	in.class, in.cluster, err = openModel(dir, cluster)
	if err != nil {
		return nil, err
	}
	var h http.Handler
	if cluster {
		h = in.cluster.Handler()
	} else {
		h = in.class.Handler()
	}
	in.mw = newMiddleware(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.closeModel()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	in.srv = &http.Server{Handler: in.mw, ReadHeaderTimeout: 10 * time.Second}
	go func() { in.done <- in.srv.Serve(ln) }()
	return in, nil
}

// readyTimeout is how long a served model may take to answer /readyz.
const readyTimeout = 30 * time.Second

// waitReady polls base/readyz until it answers 200, for at most
// readyTimeout from start.
func waitReady(client *http.Client, base string, start time.Time) error {
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Since(start) > readyTimeout {
			return fmt.Errorf("/readyz not 200 after %v", readyTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// freshCopy replaces dir with a synced copy of the prefilled model.
func freshCopy(golden, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := copyDir(golden, dir); err != nil {
		return fmt.Errorf("copy model: %w", err)
	}
	return nil
}

// startInstance copies the prefilled model to dir and serves it from
// this process: the instance a run measures.
func startInstance(golden, dir string, cluster bool, client *http.Client) (*instance, error) {
	if err := freshCopy(golden, dir); err != nil {
		return nil, err
	}
	in, err := serveModel(dir, cluster)
	if err != nil {
		return nil, err
	}
	if err := waitReady(client, in.base, time.Now()); err != nil {
		in.stop()
		return nil, err
	}
	return in, nil
}

// setupEnv, when set in the environment to a durability directory,
// makes the benchmark binary a bare server process of that directory
// (setupClusterEnv selects the clustering engine): it serves until its
// standard input closes, then stops.
const (
	setupEnv        = "PERFBENCH_SETUP_DIR"
	setupClusterEnv = "PERFBENCH_SETUP_CLUSTER"
)

// timeSetup copies the prefilled model to dir (untimed) and then times
// what setup_s measures, from an empty process: starting a fresh
// process that decodes the snapshot and builds the mirrors, opens and
// recovers the WAL and listens, until its /readyz answers 200. The
// process is stopped and waited for before timeSetup returns.
func timeSetup(golden, dir string, cluster bool, client *http.Client) (time.Duration, error) {
	if err := freshCopy(golden, dir); err != nil {
		return 0, err
	}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), setupEnv+"="+dir)
	if cluster {
		cmd.Env = append(cmd.Env, setupClusterEnv+"=1")
	}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	// The process prints its address once it listens; a process that
	// fails exits, which ends the read.
	base, rerr := bufio.NewReader(stdout).ReadString('\n')
	var took time.Duration
	if rerr == nil {
		if rerr = waitReady(client, strings.TrimSpace(base), start); rerr == nil {
			took = time.Since(start)
		}
	}
	stdin.Close()
	werr := cmd.Wait()
	if rerr != nil {
		return 0, fmt.Errorf("set-up process: %w (exit: %v)", rerr, werr)
	}
	if werr != nil {
		return 0, fmt.Errorf("set-up process: %w", werr)
	}
	return took, nil
}

// setupChild is the set-up process: it serves the directory setupEnv
// names, prints its base URL, and stops when standard input closes.
func setupChild() error {
	in, err := serveModel(os.Getenv(setupEnv), os.Getenv(setupClusterEnv) != "")
	if err != nil {
		return err
	}
	fmt.Println(in.base)
	io.Copy(io.Discard, os.Stdin)
	return in.stop()
}

// closeModel stops maintenance and closes the WAL without a final
// checkpoint, so the next open must replay everything acked since
// setup.
func (in *instance) closeModel() error {
	if in.cluster != nil {
		in.cluster.Close()
		return in.cluster.CloseDurability()
	}
	in.class.Close()
	return in.class.CloseDurability()
}

// stop shuts the HTTP server down, waits for its serve loop to return
// and closes the model.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := in.closeModel(); err == nil {
		err = cerr
	}
	return err
}

// observations is the engine's observation count (objects ingested,
// for clustering).
func (in *instance) observations() int {
	if in.cluster != nil {
		return in.cluster.Len()
	}
	return in.class.Len()
}
