package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/obsv"
	"repro/internal/wal"
)

// Predictor answers wire predict requests. Both the leader System and a
// replica's State implement it, so the same Server fronts either role.
type Predictor interface {
	PredictRPC(req netproto.PredictRequest) netproto.PredictResult
}

// ShipSource is the leader-side state a Server ships to followers. The
// ppc.System implements it when durability is enabled.
type ShipSource interface {
	Predictor
	// ReplicationEpoch returns the leader lineage epoch.
	ReplicationEpoch() (uint64, error)
	// ReplicationSnapshot assembles a full state transfer.
	ReplicationSnapshot() (*netproto.Snapshot, error)
	// Follow returns a follower of the leader's WAL delivering the records
	// past after: what each ship loop tails.
	Follow(after uint64) *wal.Follower
	// WALFirstSeq is the oldest sequence still on disk (the resume floor).
	WALFirstSeq() uint64
	// WALLastSeq is the newest assigned sequence (the lag reference).
	WALLastSeq() uint64
	// ReplObs is the leader's replication gauge set.
	ReplObs() *obsv.ReplObs
}

// The session's timing. The leader's heartbeat is its one clock: the ship
// loop sends one every heartbeat, the replica answers each with its
// applied-sequence ack, and a replica that has heard nothing for
// idleTimeout — ten heartbeats — drops the session and reconnects.
const (
	// batchMax bounds records per MsgRecords frame.
	batchMax = 512
	// handshakeTimeout bounds the hello exchange.
	handshakeTimeout = 5 * time.Second
	// heartbeat is the leader->replica liveness cadence.
	heartbeat = 500 * time.Millisecond
	// idleTimeout reconnects a replica session that has heard nothing —
	// records or heartbeats — for this long.
	idleTimeout = 10 * heartbeat
	// pollInterval is the leader's WAL tail poll cadence.
	pollInterval = 20 * time.Millisecond
	// writeTimeout is the per-write deadline on either end of a session; a
	// follower too slow to drain within it is disconnected and must
	// reconnect. Snapshot writes get 4x.
	writeTimeout = 5 * time.Second
	// dialTimeout bounds one connection attempt and the replica's hello.
	dialTimeout = 2 * time.Second
	// backoffMax caps the replica's reconnect backoff.
	backoffMax = 3 * time.Second
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// Source is the leader state to ship. nil makes the server predict-only:
	// replica handshakes are refused with CodeNotLeader (the mode a replica
	// uses to serve its own clients).
	Source ShipSource
	// Predictor serves RoleClient requests; defaults to Source.
	Predictor Predictor
	// MaxShips caps concurrent replica streams — admission control so a
	// reconnect storm cannot pile unbounded snapshot encodes onto the
	// leader (default 8).
	MaxShips int
	// Faults optionally injects wire faults into outbound frames.
	Faults *faults.Injector
}

func (c Config) withDefaults() Config {
	if c.Predictor == nil {
		c.Predictor = c.Source
	}
	if c.MaxShips <= 0 {
		c.MaxShips = 8
	}
	return c
}

// Server accepts netproto connections: predict RPC loops for clients and
// snapshot+WAL ship streams for replicas.
type Server struct {
	cfg  Config
	ln   net.Listener
	obs  *obsv.ReplObs
	done chan struct{}
	wg   sync.WaitGroup

	shipSem chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	acks   map[net.Conn]uint64
	closed bool
}

// Serve listens on cfg.Addr and accepts in the background until Close.
func Serve(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("replica: server needs a Source or a Predictor")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("replica: listen %s: %w", cfg.Addr, err)
	}
	var obs *obsv.ReplObs
	if cfg.Source != nil {
		obs = cfg.Source.ReplObs()
	} else {
		obs = &obsv.ReplObs{}
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		obs:     obs,
		done:    make(chan struct{}),
		shipSem: make(chan struct{}, cfg.MaxShips),
		conns:   make(map[net.Conn]struct{}),
		acks:    make(map[net.Conn]uint64),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, disconnects every live connection and waits for
// the per-connection goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.done)
	err := s.ln.Close()
	for _, c := range conns {
		c.Close() //nolint:errcheck
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close() //nolint:errcheck
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// forget drops a finished connection from the tracking maps and refreshes
// the min-follower-ack gauge.
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	delete(s.acks, conn)
	s.publishMinAckLocked()
	s.mu.Unlock()
}

// recordAck stores a follower's acknowledged sequence and refreshes the
// min gauge (the fleet's replication low-water mark).
func (s *Server) recordAck(conn net.Conn, seq uint64) {
	s.mu.Lock()
	s.acks[conn] = seq
	s.publishMinAckLocked()
	s.mu.Unlock()
}

func (s *Server) publishMinAckLocked() {
	min := uint64(0)
	first := true
	for _, a := range s.acks {
		if first || a < min {
			min, first = a, false
		}
	}
	s.obs.SetMinFollowerAck(min)
}

// handle runs one connection: handshake, then the role's loop.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer s.forget(conn)
	defer conn.Close() //nolint:errcheck
	c := netproto.NewConn(conn, s.cfg.Faults)

	conn.SetReadDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck
	t, body, err := c.ReadMsg()
	if err != nil || t != netproto.MsgHello {
		return
	}
	hello, err := netproto.DecodeHello(body)
	if err != nil {
		if errors.Is(err, netproto.ErrVersionMismatch) {
			s.writeError(c, netproto.CodeVersionMismatch,
				fmt.Sprintf("server speaks protocol v%d, client v%d", netproto.Version, hello.Version))
		}
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck

	switch hello.Role {
	case netproto.RoleClient:
		s.serveClient(c)
	case netproto.RoleReplica:
		if s.cfg.Source == nil {
			s.writeError(c, netproto.CodeNotLeader, "this node does not ship state")
			return
		}
		select {
		case s.shipSem <- struct{}{}:
			defer func() { <-s.shipSem }()
		default:
			s.obs.CountAdmissionDenial()
			s.writeError(c, netproto.CodeBusy,
				fmt.Sprintf("ship admission cap %d reached", s.cfg.MaxShips))
			return
		}
		s.serveReplica(c, hello)
	}
}

// writeError best-effort sends a typed error before the connection drops.
func (s *Server) writeError(c *netproto.Conn, code uint16, msg string) {
	c.NetConn().SetWriteDeadline(time.Now().Add(writeTimeout))                         //nolint:errcheck
	c.WriteMsg(netproto.MsgError, netproto.ErrorMsg{Code: code, Msg: msg}.Encode(nil)) //nolint:errcheck
}

// serveClient runs the predict RPC loop: requests in, results out, until
// the client hangs up.
func (s *Server) serveClient(c *netproto.Conn) {
	var scratch []byte
	for {
		t, body, err := c.ReadMsg()
		if err != nil {
			return
		}
		switch t {
		case netproto.MsgPredict:
			req, err := netproto.DecodePredictRequest(body)
			var res netproto.PredictResult
			if err != nil {
				res = netproto.PredictResult{Status: netproto.StatusBadRequest, ErrMsg: err.Error()}
			} else {
				res = s.cfg.Predictor.PredictRPC(req)
			}
			scratch = res.Encode(scratch[:0])
			c.NetConn().SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
			if err := c.WriteMsg(netproto.MsgPredictResult, scratch); err != nil {
				return
			}
		case netproto.MsgPing:
			c.NetConn().SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
			if err := c.WriteMsg(netproto.MsgPong, nil); err != nil {
				return
			}
		default:
			s.writeError(c, netproto.CodeBadRequest, fmt.Sprintf("unexpected %v on a client connection", t))
			return
		}
	}
}

// serveReplica runs one ship stream: welcome (+ snapshot unless the
// follower can resume), then WAL tail batches and heartbeats until the
// follower disconnects, falls too far behind, or the server closes. A batch
// is the WAL's frames as the segments hold them (Follower.Poll), nothing
// before or after them: the leader checks them and decodes none.
func (s *Server) serveReplica(c *netproto.Conn, hello netproto.Hello) {
	src := s.cfg.Source
	epoch, err := src.ReplicationEpoch()
	if err != nil {
		s.writeError(c, netproto.CodeInternal, err.Error())
		return
	}

	// Resume only a follower from this lineage whose next record is still
	// on disk and whose position the log has reached; everything else gets
	// a fresh snapshot. A follower past the tail applied records this log
	// no longer holds (the leader restarted from an older image), and the
	// sequence numbers it would wait for will name other records.
	last := src.WALLastSeq()
	resume := hello.Epoch == epoch && hello.LastSeq+1 >= src.WALFirstSeq() && hello.LastSeq <= last
	after := hello.LastSeq

	c.NetConn().SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
	welcome := netproto.Welcome{Version: netproto.Version, Resume: resume, Epoch: epoch, LastSeq: last}
	if err := c.WriteMsg(netproto.MsgWelcome, welcome.Encode(nil)); err != nil {
		return
	}
	if !resume {
		snap, err := src.ReplicationSnapshot()
		if err != nil {
			s.writeError(c, netproto.CodeInternal, err.Error())
			return
		}
		body := snap.Encode(nil)
		// Snapshots are the largest frames; give the follower longer to
		// drain one than a steady-state batch.
		c.NetConn().SetWriteDeadline(time.Now().Add(4 * writeTimeout)) //nolint:errcheck
		if err := c.WriteMsg(netproto.MsgSnapshot, body); err != nil {
			s.obs.CountShipError()
			return
		}
		s.obs.CountSnapshotSent(len(body))
		after = snap.BaseSeq
	}

	s.obs.FollowerConnected()
	defer s.obs.FollowerDisconnected()

	// The read side of a ship stream carries only the follower's acks, one
	// in reply to each heartbeat; consume them concurrently so a follower
	// that hangs up unblocks the loop below at once.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			t, body, err := c.ReadMsg()
			if err != nil {
				return
			}
			if t == netproto.MsgHeartbeat {
				if hb, err := netproto.DecodeHeartbeat(body); err == nil {
					s.recordAck(c.NetConn(), hb.Seq)
				}
			}
		}
	}()

	follower := src.Follow(after)
	poll := time.NewTicker(pollInterval)
	defer poll.Stop()
	hb := time.NewTicker(heartbeat)
	defer hb.Stop()
	var scratch []byte

	for {
		select {
		case <-s.done:
			return
		case <-readerDone:
			return
		case <-hb.C:
			beat := netproto.Heartbeat{Seq: src.WALLastSeq(), Epoch: epoch}
			c.NetConn().SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
			if err := c.WriteMsg(netproto.MsgHeartbeat, beat.Encode(scratch[:0])); err != nil {
				s.obs.CountShipError()
				return
			}
		case <-poll.C:
			for {
				var n int
				scratch, n, err = follower.Poll(scratch[:0], batchMax)
				if n > 0 {
					c.NetConn().SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
					if werr := c.WriteMsg(netproto.MsgRecords, scratch); werr != nil {
						s.obs.CountShipError()
						return
					}
					s.obs.CountRecordsShipped(n)
				}
				if err != nil {
					if errors.Is(err, wal.ErrCompacted) {
						// The follower's position is gone (checkpoint
						// compaction won the race). It must resnapshot.
						s.writeError(c, netproto.CodeSnapshotNeeded, "tail position compacted; reconnect for a snapshot")
					} else {
						s.writeError(c, netproto.CodeInternal, err.Error())
					}
					return
				}
				if n < batchMax {
					break
				}
			}
		}
	}
}
