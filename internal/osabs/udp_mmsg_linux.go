//go:build linux && (amd64 || arm64)

// udp_mmsg_linux.go is the batched UDP backend: whole RX/TX batches move
// through single recvmmsg/sendmmsg syscalls on a non-blocking IPv4
// socket. Each recvmmsg scatter-gathers directly into the caller's arena
// slab (one iovec per frame region), so bytes travel kernel -> slab ->
// Packet.Data with no user-space copy; SO_RXQ_OVFL ancillary data carries
// the kernel's cumulative RX drop counter, which recvInto differentiates
// into per-poll drop deltas for the stats tree, and a datagram the kernel
// cut to fit its region (MSG_TRUNC) is reported, not handed up. On send,
// each run of equal-size frames rides one UDP_SEGMENT message (a GSO
// train): the kernel walks its IP/UDP stack once for the run and splits
// the skb into datagrams afterwards. The fd lives in an *os.File
// registered with Go's poller, whose fd reference fences Close.
package osabs

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

const mmsgSupported = true

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// per-message byte count, padded to 8-byte alignment.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// rxCtrlSpace is CMSG_SPACE(4) on 64-bit Linux: a 16-byte cmsghdr plus a
// uint32 payload (the SO_RXQ_OVFL counter), padded to 8 bytes.
const rxCtrlSpace = 24

// soRxqOvfl is SOL_SOCKET/SO_RXQ_OVFL.
const soRxqOvfl = 40

// GSO train layout: udpSegment is IPPROTO_UDP/UDP_SEGMENT, whose cmsg
// carries the segment size as a uint16 (txCtrlSpace is CMSG_SPACE(2));
// a train holds at most gsoMaxSegs segments (the kernel's
// UDP_MAX_SEGMENTS) and gsoMaxBytes payload bytes (one UDP datagram).
const (
	udpSegment  = 103
	txCtrlSpace = 24
	gsoMaxSegs  = 64
	gsoMaxBytes = 65507
)

type mmsgSocket struct {
	fd        int // for socket options; syscalls that race Close run under raw
	file      *os.File
	raw       syscall.RawConn
	local     string
	connected bool

	// Receiver-goroutine-owned scratch.
	rhdrs []mmsghdr
	riovs []syscall.Iovec
	rctrl []byte
	rx    mmsgCall
	// Transmitter-goroutine-owned scratch: message i carries scount[i]
	// frames, and a train's UDP_SEGMENT cmsg sits at sctrl[i*txCtrlSpace].
	shdrs  []mmsghdr
	siovs  []syscall.Iovec
	sctrl  []byte
	scount []int
	tx     mmsgCall
	// noGSO is set once the kernel refuses a train (or does not know
	// UDP_SEGMENT); every later message is plain. Transmitter-owned.
	noGSO bool

	lastOvfl  uint32
	ovflSeen  bool
	dummyByte byte // iovec base for zero-length datagrams
}

// newMmsgSocket opens the batched backend. applicable=false (with a nil
// error) means the address shape needs the portable backend instead
// (hostnames, IPv6); a true applicable with a non-nil error is fatal.
func newMmsgSocket(cfg UDPConfig) (udpSocket, error, bool) {
	laddr, ok := resolveUDP4(cfg.Listen)
	if !ok {
		return nil, nil, false
	}
	var raddr *net.UDPAddr
	if cfg.Peer != "" {
		if raddr, ok = resolveUDP4(cfg.Peer); !ok {
			return nil, nil, false
		}
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("osabs: udp socket: %w", err), true
	}
	fail := func(err error) (udpSocket, error, bool) {
		_ = syscall.Close(fd)
		return nil, err, true
	}
	if cfg.ReusePort {
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soReusePort, 1); err != nil {
			return fail(fmt.Errorf("osabs: SO_REUSEPORT: %w", err))
		}
	}
	// Socket-drop visibility is reflective surface, not correctness;
	// tolerate kernels without SO_RXQ_OVFL.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, soRxqOvfl, 1)
	// Only a kernel that knows UDP_SEGMENT accepts it as an option; an
	// older one would ignore the cmsg and send a train as one datagram.
	noGSO := syscall.SetsockoptInt(fd, syscall.IPPROTO_UDP, udpSegment, 0) != nil
	// Grow the buffers best-effort: a dataplane socket absorbing bursts
	// wants more than the 200KB default.
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1<<21)
	_ = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, 1<<21)
	sa := &syscall.SockaddrInet4{Port: laddr.Port}
	copy(sa.Addr[:], laddr.IP.To4())
	if err := syscall.Bind(fd, sa); err != nil {
		return fail(fmt.Errorf("osabs: udp bind %s: %w", cfg.Listen, err))
	}
	bound, err := syscall.Getsockname(fd)
	if err != nil {
		return fail(fmt.Errorf("osabs: udp getsockname: %w", err))
	}
	b4 := bound.(*syscall.SockaddrInet4)
	local := fmt.Sprintf("%s:%d", net.IP(b4.Addr[:]).String(), b4.Port)
	if raddr != nil {
		rsa := &syscall.SockaddrInet4{Port: raddr.Port}
		copy(rsa.Addr[:], raddr.IP.To4())
		if err := syscall.Connect(fd, rsa); err != nil {
			return fail(fmt.Errorf("osabs: udp connect %s: %w", cfg.Peer, err))
		}
	}
	// The fd is non-blocking, so NewFile registers it with the poller.
	file := os.NewFile(uintptr(fd), "udp:"+local)
	raw, _ := file.SyscallConn() // fails only on a nil *os.File
	s := &mmsgSocket{
		fd: fd, file: file, raw: raw, local: local, connected: raddr != nil, noGSO: noGSO,
		rx: mmsgCall{trap: sysRecvmmsg, flags: syscall.MSG_DONTWAIT},
		tx: mmsgCall{trap: sysSendmmsg},
	}
	s.rx.do, s.tx.do = s.rx.call, s.tx.call
	return s, nil, true
}

// mmsgCall is one recvmmsg or sendmmsg, run under RawConn.Control with
// its arguments and result kept here, so do (bound once) allocates
// nothing.
type mmsgCall struct {
	trap, flags, n, r uintptr
	hdrs              *mmsghdr
	errno             syscall.Errno
	do                func(fd uintptr)
}

func (c *mmsgCall) call(fd uintptr) {
	c.r, _, c.errno = syscall.Syscall6(c.trap, fd, uintptr(unsafe.Pointer(c.hdrs)), c.n, c.flags, 0, 0)
}

// run makes the call over n messages from hdrs while the poller holds
// the fd. Control fails only once the file is closed: ErrClosed.
func (s *mmsgSocket) run(c *mmsgCall, hdrs *mmsghdr, n int) (int, error) {
	c.hdrs, c.n = hdrs, uintptr(n)
	if err := s.raw.Control(c.do); err != nil {
		return 0, ErrClosed
	}
	if c.errno != 0 {
		return 0, c.errno
	}
	return int(c.r), nil
}

// growRecv sizes the receive scratch vectors for n messages.
func (s *mmsgSocket) growRecv(n int) {
	if cap(s.rhdrs) < n {
		s.rhdrs = make([]mmsghdr, n)
		s.riovs = make([]syscall.Iovec, n)
		s.rctrl = make([]byte, n*rxCtrlSpace)
	}
	s.rhdrs = s.rhdrs[:n]
	s.riovs = s.riovs[:n]
}

func (s *mmsgSocket) recvInto(slab []byte, fs int, lens []int) (int, int, uint64, error) {
	n := len(lens)
	s.growRecv(n)
	for i := 0; i < n; i++ {
		s.riovs[i].Base = &slab[i*fs]
		s.riovs[i].SetLen(fs)
		h := &s.rhdrs[i].hdr
		h.Name = nil
		h.Namelen = 0
		h.Iov = &s.riovs[i]
		h.Iovlen = 1
		h.Control = &s.rctrl[i*rxCtrlSpace]
		h.SetControllen(rxCtrlSpace)
		h.Flags = 0
		s.rhdrs[i].n = 0
	}
	got, err := s.run(&s.rx, &s.rhdrs[0], n)
	runtime.KeepAlive(slab)
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return 0, 1, 0, nil
	}
	if err != nil {
		return 0, 1, 0, err
	}
	var kdrops uint64
	for i := 0; i < got; i++ {
		lens[i] = int(s.rhdrs[i].n)
		if s.rhdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			lens[i] = -1
		}
		if d, ok := s.parseOvfl(i); ok {
			// The counter is cumulative per socket; successive messages
			// carry non-decreasing values, so the last one wins and the
			// delta against the previous poll is this poll's drop count.
			if s.ovflSeen {
				kdrops = uint64(d - s.lastOvfl) // wraps correctly in uint32
			}
			s.lastOvfl, s.ovflSeen = d, true
		}
	}
	return got, 1, kdrops, nil
}

// parseOvfl extracts the SO_RXQ_OVFL uint32 from message i's ancillary
// data, if the kernel attached one.
func (s *mmsgSocket) parseOvfl(i int) (uint32, bool) {
	cl := int(s.rhdrs[i].hdr.Controllen)
	if cl < syscall.SizeofCmsghdr+4 {
		return 0, false
	}
	ctrl := s.rctrl[i*rxCtrlSpace : i*rxCtrlSpace+cl]
	cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
	if cm.Level != syscall.SOL_SOCKET || cm.Type != soRxqOvfl {
		return 0, false
	}
	return *(*uint32)(unsafe.Pointer(&ctrl[syscall.SizeofCmsghdr])), true
}

// layoutSend lays frames out as messages from shdrs[0]: each run of two
// or more equal-length, non-empty frames becomes one UDP_SEGMENT train
// (one iovec per frame, no copy) unless noGSO is set; every other frame
// is a plain message. It returns the message count.
func (s *mmsgSocket) layoutSend(frames [][]byte) int {
	n := len(frames)
	if cap(s.shdrs) < n {
		s.shdrs = make([]mmsghdr, n)
		s.siovs = make([]syscall.Iovec, n)
		s.sctrl = make([]byte, n*txCtrlSpace)
		s.scount = make([]int, n)
	}
	for i, f := range frames {
		if len(f) > 0 {
			s.siovs[i].Base = &f[0]
		} else {
			s.siovs[i].Base = &s.dummyByte
		}
		s.siovs[i].SetLen(len(f))
	}
	m := 0
	for i := 0; i < n; m++ {
		size, run := len(frames[i]), 1
		for !s.noGSO && size > 0 && run < gsoMaxSegs && i+run < n &&
			len(frames[i+run]) == size && (run+1)*size <= gsoMaxBytes {
			run++
		}
		h := &s.shdrs[m].hdr
		h.Name = nil
		h.Namelen = 0
		h.Iov = &s.siovs[i]
		h.Iovlen = uint64(run)
		h.Control = nil
		h.SetControllen(0)
		h.Flags = 0
		if run > 1 {
			ctrl := s.sctrl[m*txCtrlSpace : (m+1)*txCtrlSpace]
			cm := (*syscall.Cmsghdr)(unsafe.Pointer(&ctrl[0]))
			cm.Level = syscall.IPPROTO_UDP
			cm.Type = udpSegment
			cm.SetLen(syscall.CmsgLen(2))
			*(*uint16)(unsafe.Pointer(&ctrl[syscall.SizeofCmsghdr])) = uint16(size)
			h.Control = &ctrl[0]
			h.SetControllen(txCtrlSpace)
		}
		s.scount[m] = run
		i += run
	}
	return m
}

func (s *mmsgSocket) sendBatch(frames [][]byte) (int, int, int, error) {
	if !s.connected {
		return 0, 0, 0, fmt.Errorf("osabs: udp %s: send without a peer", s.local)
	}
	defer runtime.KeepAlive(frames)
	// sent counts frames, done the messages of the current layout.
	msgs := s.layoutSend(frames)
	sent, done, syscalls, trains := 0, 0, 0, 0
	for done < msgs {
		r, err := s.run(&s.tx, &s.shdrs[done], msgs-done)
		if err == ErrClosed {
			return sent, syscalls, trains, err
		}
		syscalls++
		if err == syscall.EINTR {
			continue
		}
		if (err == syscall.EINVAL || err == syscall.EIO) && s.scount[done] > 1 {
			// The kernel will not segment for this socket (no checksum
			// offload, SO_NO_CHECK, MTU): the refused train and
			// everything after it go out plain, for good.
			s.noGSO = true
			msgs, done = s.layoutSend(frames[sent:]), 0
			continue
		}
		if err == syscall.EAGAIN || err == syscall.ENOBUFS || err == syscall.ECONNREFUSED {
			// Buffer pressure (or a not-yet-listening peer's ICMP bounce
			// on a connected socket): the remainder drops, exactly as a
			// full TX ring drops.
			break
		}
		if err != nil {
			return sent, syscalls, trains, err
		}
		if r == 0 {
			break
		}
		for _, c := range s.scount[done : done+r] {
			sent += c
			if c > 1 {
				trains++
			}
		}
		done += r
	}
	return sent, syscalls, trains, nil
}

func (s *mmsgSocket) localAddr() string { return s.local }

// wait parks in the poller until the socket is readable, the file
// closes or ctx ends. RawConn.Read re-arms readiness, then tries
// peekQueue before it parks, so a datagram that landed after the last
// empty poll ends the wait at once. ctx ends it by a read deadline in
// the past, which recvInto (under Control) never sees.
func (s *mmsgSocket) wait(ctx context.Context) {
	_ = s.file.SetReadDeadline(time.Time{})
	stop := context.AfterFunc(ctx, func() { _ = s.file.SetReadDeadline(time.Unix(1, 0)) })
	_ = s.raw.Read(peekQueue)
	stop()
}

// peekQueue reports whether a receive may find something: a zero-length
// MSG_PEEK receive answers EAGAIN only on an empty queue.
func peekQueue(fd uintptr) bool {
	_, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, fd, 0, 0,
		syscall.MSG_PEEK|syscall.MSG_DONTWAIT, 0, 0)
	return errno != syscall.EAGAIN
}

func (s *mmsgSocket) close() error { return s.file.Close() }
