// udp_portable.go is the per-datagram UDP backend: pure net package, so
// it builds on every platform. It implements the same udpSocket contract
// as the batched Linux backend — recvInto fills the same slab layout one
// ReadFromUDP at a time — which is what lets the backend-equivalence
// tests run the two against each other. Non-blocking polling is
// approximated with short read deadlines: the first read of a poll may
// wait portablePollWait, drains after it wait at most portableDrainWait.
package osabs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"time"
)

// portableDrainWait bounds the per-datagram wait while draining a batch
// after the first datagram of a poll has arrived.
const portableDrainWait = 5 * time.Microsecond

type portableSocket struct {
	conn  *net.UDPConn
	peer  *net.UDPAddr
	local string
}

func newPortableSocket(cfg UDPConfig) (*portableSocket, error) {
	var lc net.ListenConfig
	if cfg.ReusePort {
		if err := reusePortControl(&lc); err != nil {
			return nil, fmt.Errorf("osabs: udp %q: %w", cfg.Listen, err)
		}
	}
	pc, err := lc.ListenPacket(context.Background(), "udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("osabs: udp listen %q: %w", cfg.Listen, err)
	}
	conn := pc.(*net.UDPConn)
	// Match the batched backend's buffer sizing (best-effort): a
	// dataplane socket absorbing bursts wants more than the stock
	// couple-hundred-KB default, whichever syscall strategy serves it.
	_ = conn.SetReadBuffer(1 << 21)
	_ = conn.SetWriteBuffer(1 << 21)
	s := &portableSocket{conn: conn, local: conn.LocalAddr().String()}
	if cfg.Peer != "" {
		ua, err := net.ResolveUDPAddr("udp", cfg.Peer)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("osabs: udp peer %q: %w", cfg.Peer, err)
		}
		s.peer = ua
	}
	return s, nil
}

func (s *portableSocket) recvInto(slab []byte, fs int, lens []int) (int, int, uint64, error) {
	n := 0
	// The first read of a poll may park briefly; once a datagram has
	// arrived, drain whatever else is queued with a near-immediate
	// deadline so batch fill reflects actual queue depth, not waiting.
	_ = s.conn.SetReadDeadline(time.Now().Add(portablePollWait))
	for n < len(lens) {
		m, _, err := s.conn.ReadFromUDP(slab[n*fs : (n+1)*fs])
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// The read that timed out moved no frame: an empty poll
				// when it was the first, else only the end of the drain.
				return n, max(n, 1), 0, nil
			}
			return n, n + 1, 0, err
		}
		lens[n] = m
		n++
		if n == 1 {
			_ = s.conn.SetReadDeadline(time.Now().Add(portableDrainWait))
		}
	}
	return n, n, 0, nil
}

func (s *portableSocket) sendBatch(frames [][]byte) (int, int, error) {
	if s.peer == nil {
		return 0, 0, fmt.Errorf("osabs: udp %s: send without a peer", s.local)
	}
	sent := 0
	for _, f := range frames {
		if _, err := s.conn.WriteToUDP(f, s.peer); err != nil {
			return sent, sent + 1, err
		}
		sent++
	}
	return sent, sent, nil
}

func (s *portableSocket) localAddr() string { return s.local }

func (s *portableSocket) close() error { return s.conn.Close() }
