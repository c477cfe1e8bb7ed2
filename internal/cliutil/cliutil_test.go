package cliutil

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distws/internal/obs"
)

func TestNoFlagsIsNoOp(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	d := RegisterFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start with no flags: %v", err)
	}
	if d.Server() != nil {
		t.Fatal("server without -listen")
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("second Stop not idempotent: %v", err)
	}
}

func TestProfilesAreWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	d := RegisterFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

func TestListenServesMetrics(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	d := RegisterFlags(fs)
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer d.Stop()
	srv := d.Server()
	if srv == nil {
		t.Fatal("no server despite -listen")
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if err := d.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

func TestWriteTraceFile(t *testing.T) {
	if err := WriteTraceFile(nil, filepath.Join(t.TempDir(), "x"), "events", 0); err == nil {
		t.Fatal("WriteTraceFile accepted a disabled recorder")
	}

	rec := obs.NewRecorder(obs.RecorderOptions{})
	rec.Configure(1, 1, func() int64 { return 5 }, obs.VirtualNS)
	rec.Record(0, 0, obs.KindSpawn, 1, 0, 0)
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := WriteTraceFile(rec, path, "events", 0); err != nil {
		t.Fatalf("WriteTraceFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"format":"distws-trace"`) {
		t.Fatalf("trace file lacks header: %q", data)
	}
	td, err := obs.ReadEvents(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("written trace unreadable: %v", err)
	}
	if len(td.Events) != 1 {
		t.Fatalf("trace holds %d events, want 1", len(td.Events))
	}

	if err := WriteTraceFile(rec, path, "nope", 0); err == nil {
		t.Fatal("WriteTraceFile accepted an unknown format")
	}
}
