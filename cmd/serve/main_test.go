package main

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"bayestree/internal/core"
	"bayestree/internal/server"
)

// formerFlags is every flag of the two binaries 'serve class' and
// 'serve cluster' replace (serveclass and servecluster), with the
// default each had there.
var formerFlags = map[string]map[string]string{
	"class": {
		"addr": ":8080", "shards": "4", "snapshot": "", "dataset": "", "scale": "0.05",
		"empty-dim": "0", "empty-labels": "0,1,2", "seed": "42", "budget": "32",
		"max-budget": "1024", "nps": "0", "burst": "0", "strategy": "glo", "priority": "prob",
		"pooled": "false", "entropy": "false", "drain": "10s", "decay-lambda": "0",
		"min-weight": "0.05", "decay-every": "1m0s", "wal-dir": "", "fsync-every": "100ms",
		"follow": "", "promote-file": "", "replicate-addr": "", "tenants-dir": "",
		"max-resident": "0", "max-resident-bytes": "0", "tenant-default-dim": "3",
		"tenant-default-labels": "0,1,2", "tenant-default-shards": "1",
	},
	"cluster": {
		"addr": ":8081", "shards": "4", "snapshot": "", "dim": "0", "budget": "8",
		"max-budget": "64", "nps": "0", "burst": "0", "lambda": "0.004", "min-weight": "0.05",
		"decay-every": "1m0s", "snap-every": "1024", "snap-alpha": "2", "snap-cap": "0",
		"drain": "10s", "wal-dir": "", "fsync-every": "100ms", "follow": "", "promote-file": "",
		"replicate-addr": "", "tenants-dir": "", "max-resident": "0", "max-resident-bytes": "0",
		"tenant-default-dim": "2", "tenant-default-shards": "1",
	},
}

// TestFlagsMatchFormerBinaries: each subcommand has exactly the flags of
// the binary it replaces, with the same defaults, and an argument-free
// parse resolves them into the same engine config.
func TestFlagsMatchFormerBinaries(t *testing.T) {
	if server.DefaultMaxBudget != 1024 {
		t.Fatalf("server.DefaultMaxBudget = %d; update the class max-budget default above", server.DefaultMaxBudget)
	}
	wantCfg := map[string]server.Config{
		"class": {DefaultBudget: 32, MaxBudget: 1024},
		"cluster": {DefaultBudget: 8, MaxBudget: 64,
			Decay: core.DecayOptions{Lambda: 0.004, MinWeight: 0.05}, DecayEvery: time.Minute},
	}

	for sub, want := range formerFlags {
		c, err := parse([]string{sub}, io.Discard)
		if err != nil {
			t.Fatalf("serve %s: %v", sub, err)
		}
		got := map[string]string{}
		c.fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		for name, def := range want {
			if g, ok := got[name]; !ok {
				t.Errorf("serve %s: flag -%s missing", sub, name)
			} else if g != def {
				t.Errorf("serve %s: -%s default %q, want %q", sub, name, g, def)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("serve %s: flag -%s was not a flag of the former binary", sub, name)
			}
		}
		if c.cfg != wantCfg[sub] {
			t.Errorf("serve %s: default engine config %+v, want %+v", sub, c.cfg, wantCfg[sub])
		}
	}
}

// TestUsageErrors: every bad invocation — flag syntax, the shared
// validation, each workload's own, and model bootstrap mistakes —
// exits 2 with its message, before anything listens.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{nil, "Usage: serve class|cluster"},
		{[]string{"serveclass"}, "Usage: serve class|cluster"},
		{[]string{"class", "-train", "train.csv"}, "flag provided but not defined: -train"},
		{[]string{"cluster", "extra"}, "unexpected arguments"},
		{[]string{"class", "-tenants-dir", dir, "-snapshot", "m.btsn"}, "-tenants-dir is exclusive with -snapshot/-wal-dir/-follow/-replicate-addr"},
		{[]string{"class", "-tenants-dir", dir, "-dataset", "covertype"}, "-tenants-dir is exclusive with -dataset"},
		{[]string{"cluster", "-tenants-dir", dir, "-wal-dir", dir}, "-tenants-dir is exclusive with -snapshot/-wal-dir/-follow/-replicate-addr"},
		{[]string{"class", "-tenants-dir", dir, "-follow", "http://p:8080"}, "-tenants-dir is exclusive"},
		{[]string{"cluster", "-tenants-dir", dir, "-replicate-addr", ":0"}, "-tenants-dir is exclusive"},
		{[]string{"class", "-max-resident", "3"}, "require -tenants-dir"},
		{[]string{"cluster", "-max-resident-bytes", "3"}, "require -tenants-dir"},
		{[]string{"class", "-follow", "http://p:8080"}, "-follow requires -wal-dir"},
		{[]string{"cluster", "-follow", "http://p:8081"}, "-follow requires -wal-dir"},
		{[]string{"class", "-promote-file", "p", "-wal-dir", dir}, "-promote-file only applies to a replica"},
		{[]string{"cluster", "-promote-file", "p"}, "-promote-file only applies to a replica"},
		{[]string{"class", "-replicate-addr", ":0"}, "-replicate-addr requires -wal-dir"},
		{[]string{"cluster", "-replicate-addr", ":0", "-dim", "2"}, "-replicate-addr requires -wal-dir"},
		{[]string{"class", "-wal-dir", dir, "-fsync-every", "-1s"}, "-fsync-every must be ≥ 0"},
		{[]string{"cluster", "-follow", "http://p:8081", "-wal-dir", dir, "-fsync-every", "-1s"}, "-fsync-every must be ≥ 0"},
		{[]string{"class", "-tenants-dir", dir, "-fsync-every", "-1s"}, "-fsync-every must be ≥ 0"},
		{[]string{"class", "-decay-lambda", "-1"}, "-decay-lambda must be ≥ 0"},
		{[]string{"cluster", "-lambda", "-1"}, "-lambda must be ≥ 0"},
		{[]string{"class", "-decay-lambda", "0.1", "-decay-every", "0s"}, "-decay-every must be > 0 with -decay-lambda set"},
		{[]string{"cluster", "-decay-every", "0s"}, "-decay-every must be > 0 with -lambda set"},
		{[]string{"class", "-decay-lambda", "0.1", "-min-weight", "2"}, "MinWeight"},
		{[]string{"cluster", "-min-weight", "-1"}, "-min-weight must be ≥ 0"},
		{[]string{"class", "-strategy", "sideways"}, "unknown strategy"},
		{[]string{"class", "-priority", "loud"}, "unknown priority"},
		{[]string{"class", "-tenants-dir", dir, "-tenant-default-labels", "1"}, "-tenant-default-labels"},
		// Bootstrap mistakes surface when the model is built.
		{[]string{"class"}, "need -snapshot (existing), -dataset or -empty-dim"},
		{[]string{"class", "-dataset", "nope"}, "unknown data set"},
		{[]string{"class", "-empty-dim", "3", "-shards", "0"}, "-shards must be ≥ 1"},
		{[]string{"class", "-empty-dim", "3", "-empty-labels", "1"}, "-empty-labels"},
		{[]string{"cluster"}, "need -snapshot (existing) or -dim ≥ 1"},
		{[]string{"cluster", "-dim", "2", "-shards", "0"}, "-shards must be ≥ 1"},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, &stderr); code != 2 {
			t.Errorf("serve %s: exit %d, want 2 (stderr %q)", strings.Join(tc.args, " "), code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.msg) {
			t.Errorf("serve %s: stderr %q does not mention %q", strings.Join(tc.args, " "), stderr.String(), tc.msg)
		}
	}
	for _, args := range [][]string{{"-h"}, {"class", "-h"}, {"cluster", "-help"}} {
		if code := run(args, io.Discard); code != 0 {
			t.Errorf("serve %s: exit %d, want 0", strings.Join(args, " "), code)
		}
	}
}

// TestREADMECommandsParse: every 'go run ./cmd/serve …' line in the
// README (with its backslash continuations) is a valid invocation.
func TestREADMECommandsParse(t *testing.T) {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const prefix = "go run ./cmd/serve "
	var cmds []string
	cont := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, prefix); i >= 0 && !cont {
			cmds = append(cmds, "")
			line, cont = line[i+len(prefix):], true
		} else if !cont {
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		cont = strings.HasSuffix(line, `\`)
		cmds[len(cmds)-1] += " " + strings.TrimSuffix(line, `\`)
	}
	if len(cmds) < 8 {
		t.Fatalf("found %d serve commands in README.md, want at least 8", len(cmds))
	}
	for _, cmd := range cmds {
		var stderr bytes.Buffer
		if _, err := parse(strings.Fields(cmd), &stderr); err != nil {
			t.Errorf("README: serve%s: %v\n%s", cmd, err, stderr.String())
		}
	}
}
