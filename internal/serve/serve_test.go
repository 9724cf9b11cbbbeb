package serve

import (
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Signals in these tests go to the test process itself. A Notify
// registration held for the whole package keeps a SIGTERM that lands
// outside Run's own registration from killing the test binary.
func TestMain(m *testing.M) {
	guard := make(chan os.Signal, 16)
	signal.Notify(guard, syscall.SIGTERM)
	code := m.Run()
	signal.Stop(guard)
	os.Exit(code)
}

// events records hook calls in order.
type events struct {
	mu  sync.Mutex
	log []string
}

func (e *events) add(ev string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log = append(e.log, ev)
}

func (e *events) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return strings.Join(e.log, ",")
}

func (e *events) count(ev string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, l := range e.log {
		if l == ev {
			n++
		}
	}
	return n
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// start runs Run in the background and waits until addr answers.
func start(t *testing.T, a App) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(a) }()
	waitFor(t, "listener", func() bool {
		resp, err := http.Get("http://" + a.Addr + "/up")
		if err == nil {
			resp.Body.Close()
		}
		return err == nil
	})
	return done
}

// terminate sends SIGTERM to this process until the app starts
// draining (Run may not have registered for signals yet), then waits
// for Run to return.
func terminate(t *testing.T, ev *events, done <-chan error) error {
	t.Helper()
	waitFor(t, "drain", func() bool {
		if ev.count("draining") > 0 {
			return true
		}
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		return false
	})
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after SIGTERM")
		return nil
	}
}

// TestRunDrainOrder: SIGTERM fails readiness first, then Shutdown lets
// the in-flight request finish, then maintenance stops, then the model
// is persisted.
func TestRunDrainOrder(t *testing.T) {
	ev := &events{}
	inflight := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/up", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inflight)
		// Outlast the signal: Shutdown must wait for this response.
		for ev.count("draining") == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(200 * time.Millisecond)
		ev.add("request done")
	})
	a := App{
		Name: "test", Addr: freeAddr(t), Handler: mux, DrainTimeout: 5 * time.Second,
		SetDraining: func(v bool) {
			if v {
				ev.add("draining")
			}
		},
		Close:   func() { ev.add("close") },
		Persist: func() error { ev.add("persist"); return nil },
	}
	done := start(t, a)
	go func() {
		if resp, err := http.Get("http://" + a.Addr + "/slow"); err == nil {
			resp.Body.Close()
		}
	}()
	<-inflight
	if err := terminate(t, ev, done); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := ev.String(), "draining,request done,close,persist"; got != want {
		t.Fatalf("drain order %q, want %q", got, want)
	}
}

// TestRunPromoteFile: the promote file fires Promote exactly once and
// is removed.
func TestRunPromoteFile(t *testing.T) {
	ev := &events{}
	path := filepath.Join(t.TempDir(), "promote")
	mux := http.NewServeMux()
	mux.HandleFunc("/up", func(w http.ResponseWriter, r *http.Request) {})
	a := App{
		Name: "test", Addr: freeAddr(t), Handler: mux, DrainTimeout: time.Second,
		SetDraining: func(v bool) { ev.add("draining") },
		Promote:     func() error { ev.add("promote"); return nil },
		PromoteFile: path,
	}
	done := start(t, a)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "promote", func() bool { return ev.count("promote") > 0 })
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("promote file still present after promote (stat err %v)", err)
	}
	// Several more poll intervals must not promote again.
	time.Sleep(4 * promoteFilePoll)
	if err := terminate(t, ev, done); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := ev.count("promote"); n != 1 {
		t.Fatalf("promote fired %d times, want 1", n)
	}
}

// TestRunSignalDuringRecovery: a SIGTERM that lands while recovery is
// still replaying waits for it to finish before persisting.
func TestRunSignalDuringRecovery(t *testing.T) {
	ev := &events{}
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/up", func(w http.ResponseWriter, r *http.Request) {})
	a := App{
		Name: "test", Addr: freeAddr(t), Handler: mux, DrainTimeout: time.Second,
		Recover: func() error {
			<-release
			ev.add("recovered")
			return nil
		},
		SetDraining: func(v bool) { ev.add("draining") },
		Persist:     func() error { ev.add("persist"); return nil },
	}
	done := start(t, a)
	go func() {
		for ev.count("draining") == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		// Give a Run that does not wait the chance to persist early.
		time.Sleep(200 * time.Millisecond)
		ev.add("released")
		close(release)
	}()
	if err := terminate(t, ev, done); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got, want := ev.String(), "draining,released,recovered,persist"; got != want {
		t.Fatalf("events %q, want %q", got, want)
	}
}

// TestRunListenerError: a listener that cannot bind ends Run with its
// error.
func TestRunListenerError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() { done <- Run(App{Name: "test", Addr: l.Addr().String(), Handler: http.NewServeMux()}) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "address already in use") {
			t.Fatalf("Run error %v, want the bind failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return on a failing listener")
	}
}
