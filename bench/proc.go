package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs are the children alive right now and their temp directories;
// killAll reaps both on every exit path of the harness.
var procs struct {
	mu   sync.Mutex
	live map[*exec.Cmd]bool
	dirs map[string]bool
}

// startProc starts a child whose output goes to logPath. Pdeathsig makes
// the kernel kill it if the harness itself is killed without a chance to
// clean up.
func startProc(logPath, bin string, args ...string) (*exec.Cmd, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() //nolint:errcheck
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := track(cmd); err != nil {
		return nil, err
	}
	return cmd, nil
}

// track starts cmd as a child that killAll will reap.
func track(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	procs.mu.Lock()
	if procs.live == nil {
		procs.live = map[*exec.Cmd]bool{}
	}
	procs.live[cmd] = true
	procs.mu.Unlock()
	return nil
}

// untrack forgets a child its owner has waited for.
func untrack(cmd *exec.Cmd) {
	procs.mu.Lock()
	delete(procs.live, cmd)
	procs.mu.Unlock()
}

// killProc sends SIGKILL and waits until the child has ended.
func killProc(cmd *exec.Cmd) {
	if cmd == nil {
		return
	}
	procs.mu.Lock()
	alive := procs.live[cmd]
	delete(procs.live, cmd)
	procs.mu.Unlock()
	if alive {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
	}
}

func killAll() {
	procs.mu.Lock()
	var all []*exec.Cmd
	for cmd := range procs.live {
		all = append(all, cmd)
	}
	procs.mu.Unlock()
	for _, cmd := range all {
		killProc(cmd)
	}
	procs.mu.Lock()
	defer procs.mu.Unlock()
	for dir := range procs.dirs {
		os.RemoveAll(dir) //nolint:errcheck
	}
	procs.dirs = nil
}

// freeAddrs picks n distinct free loopback ports by binding :0 n times and
// releasing them together.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close() //nolint:errcheck
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// buildBinaries compiles the two real servers from the repository's source
// into out/bin. The go tool's cache makes this a no-op when nothing
// changed; it is never part of setup_s.
func buildBinaries(cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/ppcserve", "./cmd/ppcreplica")
	cmd.Dir = filepath.Join(cfg.root, "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
}

// cluster is one ppcserve leader with one ppcreplica attached.
type cluster struct {
	bin, dir, walDir                     string
	leader, replica                      *exec.Cmd
	leaderArgs                           []string
	http, ship, replicaHTTP, replicaServ string
	hc                                   *http.Client
}

// startCluster starts the leader (durable, shipping, -load 0) and a replica
// in fresh temp directories and returns once both answer /health with 200;
// took is process start to that moment.
func startCluster(sp *spec, cfg runConfig, bin string) (c *cluster, took time.Duration, err error) {
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, 0, err
	}
	procs.mu.Lock()
	if procs.dirs == nil {
		procs.dirs = map[string]bool{}
	}
	procs.dirs[dir] = true
	procs.mu.Unlock()
	c = &cluster{bin: bin, dir: dir, walDir: filepath.Join(dir, "wal")}
	c.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	started := c // the error returns below set c to nil before this runs
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\nleader: %s\nreplica: %s", err, logTail(dir, "leader.log"), logTail(dir, "replica.log"))
			started.stop()
		}
	}()
	addrs, err := freeAddrs(4)
	if err != nil {
		return nil, 0, err
	}
	c.http, c.ship, c.replicaHTTP, c.replicaServ = addrs[0], addrs[1], addrs[2], addrs[3]
	capacity := sp.cacheCap
	if capacity == 0 {
		capacity = 64
	}
	c.leaderArgs = []string{"-addr", c.http, "-load", "0", "-cache", strconv.Itoa(capacity),
		"-scale", strconv.Itoa(dbConfig.Scale), "-seed", strconv.FormatInt(dbConfig.Seed, 10),
		"-wal-dir", c.walDir, "-wal-sync", "interval", "-checkpoint-every", "1h", "-ship-addr", c.ship}
	t0 := time.Now()
	if c.leader, err = startProc(filepath.Join(dir, "leader.log"), filepath.Join(bin, "ppcserve"), c.leaderArgs...); err != nil {
		return nil, 0, err
	}
	if c.replica, err = startProc(filepath.Join(dir, "replica.log"), filepath.Join(bin, "ppcreplica"),
		"-leader", c.ship, "-addr", c.replicaHTTP, "-serve", c.replicaServ, "-backoff", "5ms"); err != nil {
		return nil, 0, err
	}
	if err = c.waitHealthy(c.http); err != nil {
		return nil, 0, err
	}
	if err = c.waitHealthy(c.replicaHTTP); err != nil {
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// startClusterRetrying is startCluster, tried again on fresh ports and a
// fresh directory if it fails: a port released by freeAddrs can be taken
// before the server binds it. took is the successful start's alone.
func startClusterRetrying(sp *spec, cfg runConfig, bin string) (c *cluster, took time.Duration, err error) {
	for attempt := 1; ; attempt++ {
		if c, took, err = startCluster(sp, cfg, bin); err == nil || attempt == 3 {
			return c, took, err
		}
		fmt.Fprintf(os.Stderr, "bench: cluster start %d failed, trying again: %v\n", attempt, err)
	}
}

// logTail is the end of a child's log, for an error message.
func logTail(dir, name string) string {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return err.Error()
	}
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// stop kills both processes, waits for them, and removes the temp dirs.
func (c *cluster) stop() {
	killProc(c.replica)
	killProc(c.leader)
	c.hc.CloseIdleConnections()
	os.RemoveAll(c.dir) //nolint:errcheck
	procs.mu.Lock()
	delete(procs.dirs, c.dir)
	procs.mu.Unlock()
}

// waitHealthy polls /health until it answers 200.
func (c *cluster) waitHealthy(addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.hc.Get("http://" + addr + "/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()              //nolint:errcheck
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s/health not 200 within 20s", addr)
}

// restartLeader kills the leader with SIGKILL (no clean close, no final
// checkpoint) and starts it again on the same directory; took is kill to
// /health 200.
func (c *cluster) restartLeader() (took time.Duration, err error) {
	t0 := time.Now()
	killProc(c.leader)
	if c.leader, err = startProc(filepath.Join(c.dir, "leader.log"), filepath.Join(c.bin, "ppcserve"), c.leaderArgs...); err != nil {
		return 0, err
	}
	if err := c.waitHealthy(c.http); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// getJSON decodes a GET reply; a non-200 status is an error.
func (c *cluster) getJSON(addr, path string, v any) error { return getJSON(c.hc, addr, path, v) }

func getJSON(hc *http.Client, addr, path string, v any) error {
	resp, err := hc.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runReply is the part of the /run reply the harness reads.
type runReply struct {
	Invoked   bool `json:"invoked"`
	Predicted bool `json:"predicted"`
	CacheHit  bool `json:"cache_hit"`
	Rows      int  `json:"rows"`
}

func runURL(addr, template string, point []float64) string {
	var b strings.Builder
	b.WriteString("http://" + addr + "/run?template=" + template + "&values=")
	for i, v := range point {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b.String()
}

// post sends one POST /run and returns the parsed reply; the caller times
// it, so the time is what a client sees: request, reply, and its decoding.
func (c *cluster) post(url string, reply *runReply) error {
	resp, err := c.hc.Post(url, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// replicaHealth is the part of the replica's /health the harness reads.
type replicaHealth struct {
	Ready      bool   `json:"ready"`
	LagRecords uint64 `json:"lag_records"`
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq"`
}

// waitCaughtUp waits until the replica has applied the leader's whole WAL
// (the leader is idle, so its last sequence is stable).
func (c *cluster) waitCaughtUp() (time.Duration, error) {
	t0 := time.Now()
	var last struct {
		WAL struct {
			Appends uint64 `json:"appends"`
		} `json:"wal"`
	}
	if err := c.getJSON(c.http, "/metrics", &last); err != nil {
		return 0, err
	}
	for time.Since(t0) < 20*time.Second {
		var h replicaHealth
		if err := c.getJSON(c.replicaHTTP, "/health", &h); err == nil && h.LagRecords == 0 && h.AppliedSeq >= last.WAL.Appends {
			return time.Since(t0), nil
		}
		time.Sleep(time.Millisecond)
	}
	return 0, fmt.Errorf("replica did not catch up within 20s")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (total int64) {
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}
