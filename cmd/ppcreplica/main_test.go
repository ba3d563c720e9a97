package main

// Leader+replica failover integration test over real processes: build
// ppcserve and ppcreplica, run a leader under load with state shipping on,
// attach a replica, SIGKILL the leader, and assert the replica keeps
// serving predictions from its installed state while reporting replication
// lag. Restarting the leader on the same durability directory must pull
// the replica back into the same lineage with no acknowledged feedback
// lost (its applied watermark only grows). This is the acceptance test for
// the replication tentpole at the process boundary — signals, sockets, WAL
// files — the in-process variants live in the root package.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// replicaMetrics mirrors the obsv.ReplSnapshot fields this test reads.
type replicaMetrics struct {
	RecordsApplied     uint64 `json:"records_applied"`
	SnapshotsInstalled uint64 `json:"snapshots_installed"`
	FenceDiscards      uint64 `json:"fence_discards"`
	LeaderSeq          uint64 `json:"leader_seq"`
	AppliedSeq         uint64 `json:"applied_seq"`
	LagRecords         uint64 `json:"lag_records"`
	Connected          bool   `json:"connected"`
}

func TestLeaderReplicaFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real binaries; skipped in -short")
	}
	bins := t.TempDir()
	leaderBin := filepath.Join(bins, "ppcserve")
	replicaBin := filepath.Join(bins, "ppcreplica")
	if out, err := exec.Command("go", "build", "-o", leaderBin, "../ppcserve").CombinedOutput(); err != nil {
		t.Fatalf("build ppcserve: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "build", "-o", replicaBin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build ppcreplica: %v\n%s", err, out)
	}

	walDir := filepath.Join(t.TempDir(), "durable")
	leaderHTTP := freeAddr(t)
	shipAddr := freeAddr(t)
	replicaHTTP := freeAddr(t)
	replicaBase := "http://" + replicaHTTP

	startLeader := func() *exec.Cmd {
		cmd := exec.Command(leaderBin,
			"-addr", leaderHTTP, "-scale", "2000", "-templates", "Q1", "-load", "2",
			"-wal-dir", walDir, "-wal-sync", "always", "-checkpoint-every", "500ms",
			"-ship-addr", shipAddr)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	leader := startLeader()
	defer leader.Process.Kill() //nolint:errcheck

	replicaCmd := exec.Command(replicaBin,
		"-leader", shipAddr, "-addr", replicaHTTP, "-backoff", "50ms")
	replicaCmd.Stderr = os.Stderr
	if err := replicaCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer replicaCmd.Process.Kill() //nolint:errcheck

	// Replica must go healthy (snapshot installed) and start applying the
	// live tail the load generator produces.
	waitFor(t, 60*time.Second, func() bool {
		m, ok := getMetrics(replicaBase)
		return ok && m.SnapshotsInstalled > 0 && m.Connected && healthCode(replicaBase) == http.StatusOK
	})
	waitFor(t, 60*time.Second, func() bool {
		m, ok := getMetrics(replicaBase)
		return ok && m.AppliedSeq > 0
	})
	if code := predictCode(replicaBase); code != http.StatusOK {
		t.Fatalf("replica /predict = %d before the crash", code)
	}

	// Crash the leader: SIGKILL, no shutdown hooks, mid-load.
	preKill, ok := getMetrics(replicaBase)
	if !ok {
		t.Fatal("replica metrics unreadable before the kill")
	}
	if err := leader.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	leader.Wait() //nolint:errcheck

	// The replica keeps serving from installed state while the leader is
	// dead — health stays 200, predictions keep answering, and the lag
	// gauges stay readable.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if code := healthCode(replicaBase); code != http.StatusOK {
			t.Fatalf("replica /health = %d while the leader is down", code)
		}
		if code := predictCode(replicaBase); code != http.StatusOK {
			t.Fatalf("replica /predict = %d while the leader is down", code)
		}
		time.Sleep(200 * time.Millisecond)
	}
	if m, ok := getMetrics(replicaBase); !ok || m.AppliedSeq < preKill.AppliedSeq {
		t.Fatalf("replica watermark went backwards while the leader was down: %+v", m)
	}

	// Leader restarts on the same durability directory: same lineage, WAL
	// recovered. The replica must reconnect without a fence discard and its
	// applied watermark must cover everything acknowledged before the kill —
	// zero lost acknowledged feedback.
	leader2 := startLeader()
	defer func() {
		leader2.Process.Kill() //nolint:errcheck
		leader2.Wait()         //nolint:errcheck
	}()
	var converged replicaMetrics
	waitFor(t, 90*time.Second, func() bool {
		m, ok := getMetrics(replicaBase)
		if !ok {
			return false
		}
		converged = m
		return m.Connected && m.AppliedSeq >= preKill.AppliedSeq && m.AppliedSeq > 0
	})
	if converged.FenceDiscards != 0 {
		t.Errorf("same-lineage restart fenced out the replica: %+v", converged)
	}
	if converged.AppliedSeq < preKill.AppliedSeq {
		t.Errorf("acknowledged feedback lost: applied %d < pre-kill %d", converged.AppliedSeq, preKill.AppliedSeq)
	}

	// Graceful replica shutdown.
	replicaCmd.Process.Signal(os.Interrupt) //nolint:errcheck
	done := make(chan error, 1)
	go func() { done <- replicaCmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("replica shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		replicaCmd.Process.Kill() //nolint:errcheck
		t.Error("replica did not exit on SIGINT")
	}
}

func getMetrics(base string) (replicaMetrics, bool) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return replicaMetrics{}, false
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		return replicaMetrics{}, false
	}
	var m replicaMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return replicaMetrics{}, false
	}
	return m, true
}

func healthCode(base string) int {
	resp, err := http.Get(base + "/health")
	if err != nil {
		return 0
	}
	resp.Body.Close() //nolint:errcheck
	return resp.StatusCode
}

// predictCode probes /predict at a fixed Q1 point. 200 covers both an OK
// prediction and an honest NULL; anything else means the replica cannot
// serve.
func predictCode(base string) int {
	resp, err := http.Get(base + "/predict?template=Q1&values=0.3,0.3")
	if err != nil {
		return 0
	}
	resp.Body.Close() //nolint:errcheck
	return resp.StatusCode
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
