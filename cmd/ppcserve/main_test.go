package main

// Kill-and-restart integration test for the durable server: SIGKILL
// ppcserve mid-load, restart it on the same durability directory, and
// assert the recovered learner state covers everything the dead process had
// acknowledged. This drives the real binary — process boundary, signal
// delivery, WAL files on a real filesystem — not the library in-process.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// serveStats mirrors the learner fields this test reads from
// /metrics?template=Q1 (one ppc.TemplateMetrics).
type serveStats struct {
	Validated  int    `json:"validated_points"`
	AppliedSeq uint64 `json:"applied_seq"`
}

// serveRecovery mirrors the fields read from /recovery.
type serveRecovery struct {
	WALEnabled  bool
	Corrupt     bool
	WALReplayed int
	WALSkipped  int
}

func TestKillRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives the real binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "ppcserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	walDir := filepath.Join(t.TempDir(), "durable")
	addr := freeAddr(t)
	base := "http://" + addr

	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr, "-scale", "2000", "-templates", "Q1", "-load", "2",
			"-wal-dir", walDir, "-wal-sync", "always", "-checkpoint-every", "250ms")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	cmd := start()
	defer cmd.Process.Kill() //nolint:errcheck

	// Let the load generator produce acknowledged feedback, then sample the
	// durable watermark. /metrics flushes the applier, so under -wal-sync
	// always everything it reports is on disk.
	var acked serveStats
	waitFor(t, 30*time.Second, func() bool {
		st, ok := getStats(base)
		if ok && st.AppliedSeq > 0 && st.Validated > 0 {
			acked = st
			return true
		}
		return false
	})

	// Crash: SIGKILL — no shutdown hooks, no final checkpoint.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck

	cmd2 := start()
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		done := make(chan error, 1)
		go func() { done <- cmd2.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("graceful shutdown after recovery: %v", err)
			}
		case <-time.After(30 * time.Second):
			cmd2.Process.Kill() //nolint:errcheck
			t.Error("restarted server did not exit on SIGTERM")
		}
	}()

	// The restarted server must report a recovery...
	var recov serveRecovery
	waitFor(t, 30*time.Second, func() bool {
		resp, err := http.Get(base + "/recovery")
		if err != nil {
			return false
		}
		defer resp.Body.Close() //nolint:errcheck
		if resp.StatusCode != http.StatusOK {
			return false
		}
		return json.NewDecoder(resp.Body).Decode(&recov) == nil
	})
	if !recov.WALEnabled {
		t.Fatalf("recovery report not WAL-enabled: %+v", recov)
	}
	if recov.Corrupt {
		t.Fatalf("SIGKILL produced corruption, not a torn tail: %+v", recov)
	}
	if recov.WALReplayed+recov.WALSkipped == 0 {
		t.Errorf("nothing recovered from the WAL: %+v", recov)
	}

	// ...and the recovered state must cover every acknowledged point. The
	// load generator keeps running, so >= — the watermark only grows.
	waitFor(t, 30*time.Second, func() bool {
		st, ok := getStats(base)
		return ok && st.AppliedSeq >= acked.AppliedSeq && st.Validated >= acked.Validated
	})
}

// getStats fetches Q1's learner metrics.
func getStats(base string) (serveStats, bool) {
	resp, err := http.Get(base + "/metrics?template=Q1")
	if err != nil {
		return serveStats{}, false
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return serveStats{}, false
	}
	var out struct {
		Template string     `json:"template"`
		Learner  serveStats `json:"learner"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Template != "Q1" {
		return serveStats{}, false
	}
	return out.Learner, true
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatal("condition not met before deadline")
}

// freeAddr reserves a loopback port and releases it for the server to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", l.Addr().(*net.TCPAddr).Port)
	l.Close() //nolint:errcheck
	return addr
}
