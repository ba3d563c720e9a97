package replica

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/faults"
	"repro/internal/netproto"
	"repro/internal/wal"
)

// Options configures a Replica.
type Options struct {
	// LeaderAddr is the leader's ship server address.
	LeaderAddr string
	// State receives the shipped state; nil creates a fresh one.
	State *State
	// BackoffMin is the reconnect backoff's floor (default 50ms). A dial
	// nobody answers retries after BackoffMin. After a session the leader
	// answered and then ended or refused, the wait doubles from BackoffMin
	// up to backoffMax (3s); a session that was welcomed starts it over.
	BackoffMin time.Duration
	// Faults optionally injects wire faults into outbound frames.
	Faults *faults.Injector
	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.BackoffMin <= 0 {
		o.BackoffMin = 50 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Replica maintains a ship session with the leader: snapshot install on
// connect (unless the leader can resume the stream), WAL record tailing,
// an applied-sequence ack in reply to each leader heartbeat, and
// reconnection with exponential backoff. The
// installed State keeps serving predictions while the session is down —
// stale-but-same-lineage state is explicitly allowed (that is what a
// follower is); only an epoch change discards it.
type Replica struct {
	opts  Options
	state *State
	stop  chan struct{}
	done  chan struct{}
}

// Start connects in the background and returns immediately; the State
// becomes Ready once the first snapshot installs.
func Start(opts Options) (*Replica, error) {
	opts = opts.withDefaults()
	if opts.LeaderAddr == "" {
		return nil, fmt.Errorf("replica: empty leader address")
	}
	if opts.State == nil {
		opts.State = NewState(nil)
	}
	r := &Replica{
		opts:  opts,
		state: opts.State,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go r.run()
	return r, nil
}

// State returns the replica's installed state (shared with the caller's
// serving surface).
func (r *Replica) State() *State { return r.state }

// Close stops the session loop and waits for it to exit.
func (r *Replica) Close() error {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
	return nil
}

// run is the reconnect loop: one session at a time. A dial nobody answered
// retries after BackoffMin, so a replica started beside its leader attaches
// as soon as the leader listens. Once the leader has answered, the backoff
// between sessions doubles up to backoffMax, so a leader that turns the
// replica away (CodeBusy) is not hammered, and it starts over after any
// session that got as far as a welcome.
func (r *Replica) run() {
	defer close(r.done)
	obs := r.state.Obs()
	backoff := r.opts.BackoffMin
	first := true
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if !first {
			obs.CountReconnect()
		}
		wait := r.opts.BackoffMin
		conn, err := net.DialTimeout("tcp", r.opts.LeaderAddr, dialTimeout)
		if err == nil {
			var welcomed bool
			welcomed, err = r.session(conn)
			if welcomed {
				backoff = r.opts.BackoffMin
			}
			wait, backoff = backoff, min(2*backoff, backoffMax)
		}
		obs.SetConnected(false)
		if err != nil {
			r.opts.Logf("replica: session with %s: %v", r.opts.LeaderAddr, err)
		}
		select {
		case <-r.stop:
			return
		default:
		}
		first = false
		select {
		case <-time.After(wait):
		case <-r.stop:
			return
		}
	}
}

// session runs one connection to completion and closes it. welcomed
// reports whether the handshake succeeded (resets the backoff); the error is
// nil only on a deliberate stop.
func (r *Replica) session(conn net.Conn) (welcomed bool, err error) {
	obs := r.state.Obs()
	defer conn.Close() //nolint:errcheck
	// A stop while blocked in a read must tear the connection down.
	closeOnStop := make(chan struct{})
	defer close(closeOnStop)
	go func() {
		select {
		case <-r.stop:
			conn.Close() //nolint:errcheck
		case <-closeOnStop:
		}
	}()

	c := netproto.NewConn(conn, r.opts.Faults)
	hello := netproto.Hello{
		Version: netproto.Version,
		Role:    netproto.RoleReplica,
		Epoch:   r.state.Epoch(),
		LastSeq: r.state.ReceivedSeq(),
	}
	conn.SetWriteDeadline(time.Now().Add(dialTimeout)) //nolint:errcheck
	if err := c.WriteMsg(netproto.MsgHello, hello.Encode(nil)); err != nil {
		return false, err
	}

	conn.SetReadDeadline(time.Now().Add(idleTimeout)) //nolint:errcheck
	_, body, err := c.ReadExpect(netproto.MsgWelcome)
	if err != nil {
		return false, err
	}
	w, err := netproto.DecodeWelcome(body)
	if err != nil {
		return false, err
	}
	if discarded := r.state.Fence(w.Epoch); discarded {
		r.opts.Logf("replica: leader lineage changed to %x; discarded fenced-out state", w.Epoch)
	}
	obs.SetLeaderSeq(w.LastSeq)

	if !w.Resume {
		// Full state transfer. Snapshots are the largest frames: give the
		// read a generous multiple of the idle timeout.
		conn.SetReadDeadline(time.Now().Add(4 * idleTimeout)) //nolint:errcheck
		_, body, err := c.ReadExpect(netproto.MsgSnapshot)
		if err != nil {
			return false, err
		}
		snap, err := netproto.DecodeSnapshot(body)
		if err != nil {
			obs.CountBadFrame()
			return false, err
		}
		if err := r.state.Install(snap); err != nil {
			return false, err
		}
	}
	obs.SetConnected(true)
	welcomed = true

	// The loop below is the session's only reader and, once the handshake
	// is done, its only writer: it answers each leader heartbeat with the
	// applied-sequence ack, so the leader's clock paces both directions.
	for {
		conn.SetReadDeadline(time.Now().Add(idleTimeout)) //nolint:errcheck
		// CodeSnapshotNeeded comes back here as an ErrorMsg when compaction
		// outran the stream: reconnecting is the fix, since the leader sees
		// a too-old resume position and ships a fresh snapshot.
		t, body, err := c.ReadExpect(netproto.MsgRecords, netproto.MsgHeartbeat)
		if err != nil {
			if errors.Is(err, netproto.ErrBadFrame) {
				obs.CountBadFrame()
			}
			return welcomed, err
		}
		switch t {
		case netproto.MsgRecords:
			recs, err := wal.DecodeFrames(body)
			if err != nil {
				obs.CountBadFrame()
				return welcomed, err
			}
			if _, _, err := r.state.ApplyRecords(recs); err != nil {
				return welcomed, err
			}
		case netproto.MsgHeartbeat:
			hb, err := netproto.DecodeHeartbeat(body)
			if err != nil {
				obs.CountBadFrame()
				return welcomed, err
			}
			if hb.Epoch != w.Epoch {
				return welcomed, fmt.Errorf("replica: heartbeat from epoch %x on a stream fenced to %x", hb.Epoch, w.Epoch)
			}
			obs.SetLeaderSeq(hb.Seq)
			ack := netproto.Heartbeat{Seq: r.state.ReceivedSeq(), Epoch: w.Epoch}
			conn.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
			if err := c.WriteMsg(netproto.MsgHeartbeat, ack.Encode(nil)); err != nil {
				return welcomed, err
			}
		}
	}
}
