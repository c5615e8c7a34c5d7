// udp.go is the first REAL packet I/O backend: a UDP datagram device
// implementing the Device contract over actual kernel sockets, so the
// strata above forward genuine traffic instead of simulated frames. On
// Linux (amd64/arm64) batches move through recvmmsg/sendmmsg — one
// syscall per batch, the amortisation lever that separates toy software
// dataplanes from production ones (Michel et al., arXiv:2110.00631) —
// with SO_RXQ_OVFL surfacing kernel-side socket drops into the stats
// tree. Everywhere else a portable per-datagram net.UDPConn fallback
// implements the same contract behind build-tag gated backend selection.
// Multi-queue devices come from SO_REUSEPORT socket groups: the kernel
// flow-hashes datagrams across the group the way hardware RSS spreads
// flows across NIC queues.
package osabs

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"netkit/core"
	"netkit/internal/buffers"
)

// UDP device defaults.
const (
	// DefaultUDPBatch is the frames-per-syscall ceiling.
	DefaultUDPBatch = 32
	// DefaultUDPFrameSize is the per-frame byte budget carved from each
	// arena slab (>= max datagram the pipeline expects).
	DefaultUDPFrameSize = 2048
	// maxUDPBatch bounds scratch vector sizes.
	maxUDPBatch = 512
	// portablePollWait bounds how long the portable backend's first read
	// of a poll may wait for a datagram; the mmsg backend waits in Wait.
	portablePollWait = 100 * time.Microsecond
)

// UDPConfig parameterises one UDP device.
type UDPConfig struct {
	// Name labels the device in stats and Packet.InPort; default
	// "udp:<local addr>".
	Name string
	// Listen is the local address to bind ("127.0.0.1:0" picks a port).
	Listen string
	// Peer, when set, is where SendBatch transmits; a device without a
	// peer is receive-only.
	Peer string
	// Batch caps frames moved per syscall (default DefaultUDPBatch).
	Batch int
	// FrameSize is the per-frame RX byte budget (default
	// DefaultUDPFrameSize). A longer datagram arrives cut: the mmsg
	// backend drops it and counts udp_rx_truncated; the portable backend
	// hands up its first FrameSize bytes.
	FrameSize int
	// Arena overrides the device-private frame arena (e.g. to share one
	// slab pool across a queue group). Its FrameSize/Batch must be >= the
	// device's.
	Arena *FrameArena
	// ReusePort joins an SO_REUSEPORT group on Listen, letting several
	// devices share one port with kernel flow-hash steering. Linux only.
	ReusePort bool
	// ForcePortable skips the batched-syscall backend even where it is
	// available — the lever the backend-equivalence tests use.
	ForcePortable bool
}

func (c UDPConfig) withDefaults() UDPConfig {
	if c.Batch <= 0 {
		c.Batch = DefaultUDPBatch
	}
	if c.Batch > maxUDPBatch {
		c.Batch = maxUDPBatch
	}
	if c.FrameSize <= 0 {
		c.FrameSize = DefaultUDPFrameSize
	}
	return c
}

// udpSocket is the backend seam between the portable and mmsg paths.
// recvInto reads up to len(lens) datagrams into slab regions
// slab[i*fs:(i+1)*fs], recording each length in lens[i]; it returns the
// datagram count, the syscalls spent, and the kernel-reported socket
// drop delta (SO_RXQ_OVFL; 0 where unsupported); lens[i] < 0 marks a
// datagram the kernel cut to fit its region. It must not block beyond a
// short bounded poll. sendBatch transmits frames in order, returning how
// many the kernel accepted, the syscalls spent and the GSO trains among
// the messages sent. wait is Device.Wait.
type udpSocket interface {
	recvInto(slab []byte, fs int, lens []int) (n, syscalls int, kdrops uint64, err error)
	sendBatch(frames [][]byte) (sent, syscalls, trains int, err error)
	wait(ctx context.Context)
	localAddr() string
	close() error
}

// UDPDevice is a real-socket Device. One receiver goroutine and one
// transmitter goroutine may use it concurrently; Close may race both.
type UDPDevice struct {
	name  string
	sock  udpSocket
	arena *FrameArena
	batch int
	fs    int

	closed atomic.Bool

	rxFrames   atomic.Uint64
	txFrames   atomic.Uint64
	rxBytes    atomic.Uint64
	txBytes    atomic.Uint64
	rxSyscalls atomic.Uint64 // syscalls that returned >=1 datagram
	rxEmpty    atomic.Uint64 // syscalls that returned none
	txSyscalls atomic.Uint64
	txTrains   atomic.Uint64 // GSO messages sent (UDP_SEGMENT)
	txDrops    atomic.Uint64 // frames the kernel refused (full buffers)
	sockDrops  atomic.Uint64 // kernel-side RX drops (SO_RXQ_OVFL)
	rxTrunc    atomic.Uint64 // datagrams dropped for exceeding FrameSize
	arenaFails atomic.Uint64

	lens []int // recv scratch; receiver-goroutine-owned
}

// NewUDPDevice opens a UDP device. The batched-syscall backend is chosen
// on Linux amd64/arm64 for IPv4 addresses; everything else takes the
// portable per-datagram backend.
func NewUDPDevice(cfg UDPConfig) (*UDPDevice, error) {
	cfg = cfg.withDefaults()
	if cfg.Listen == "" {
		return nil, fmt.Errorf("osabs: udp device needs a listen address")
	}
	arena := cfg.Arena
	if arena == nil {
		var err error
		// Depth 8: the steady state needs one slab in flight per pipeline
		// stage that still holds frames, and overflow falls to the GC.
		arena, err = NewFrameArena(cfg.FrameSize, cfg.Batch, 8)
		if err != nil {
			return nil, err
		}
	} else if arena.FrameSize() < cfg.FrameSize || arena.Batch() < cfg.Batch {
		return nil, fmt.Errorf("osabs: shared arena %dx%d smaller than device %dx%d",
			arena.FrameSize(), arena.Batch(), cfg.FrameSize, cfg.Batch)
	}
	sock, err := openUDPSocket(cfg)
	if err != nil {
		return nil, err
	}
	name := cfg.Name
	if name == "" {
		name = "udp:" + sock.localAddr()
	}
	return &UDPDevice{
		name:  name,
		sock:  sock,
		arena: arena,
		batch: cfg.Batch,
		fs:    cfg.FrameSize,
		lens:  make([]int, cfg.Batch),
	}, nil
}

// openUDPSocket picks the backend: mmsg where compiled in and applicable,
// portable otherwise.
func openUDPSocket(cfg UDPConfig) (udpSocket, error) {
	if !cfg.ForcePortable && mmsgSupported {
		s, err, applicable := newMmsgSocket(cfg)
		if applicable {
			return s, err
		}
	}
	return newPortableSocket(cfg)
}

// Name implements Device.
func (d *UDPDevice) Name() string { return d.name }

// LocalAddr returns the bound address (resolved, so ":0" binds report
// their picked port).
func (d *UDPDevice) LocalAddr() string { return d.sock.localAddr() }

// Batch returns the configured frames-per-syscall ceiling.
func (d *UDPDevice) Batch() int { return d.batch }

// RecvBatchInto implements Device: one slab is drawn from the arena, one
// recvmmsg (or a bounded portable read loop) fills it, and the filled
// prefix is carved into frame slices appended to dst, skipping any
// datagram the kernel truncated. The returned slab carries one reference
// per appended frame; a poll that carves nothing returns the slab to the
// arena and appends nothing.
func (d *UDPDevice) RecvBatchInto(dst [][]byte, max int) ([][]byte, *buffers.Buffer, error) {
	if d.closed.Load() {
		return dst, nil, fmt.Errorf("osabs: udp %q: %w", d.name, ErrClosed)
	}
	if max > d.batch {
		max = d.batch
	}
	if max <= 0 {
		return dst, nil, nil
	}
	slab, err := d.arena.Slab()
	if err != nil {
		d.arenaFails.Add(1)
		return dst, nil, fmt.Errorf("osabs: udp %q arena: %w", d.name, err)
	}
	lens := d.lens[:max]
	n, syscalls, kdrops, err := d.sock.recvInto(slab.Bytes(), d.fs, lens)
	if kdrops > 0 {
		d.sockDrops.Add(kdrops)
	}
	if err != nil {
		_ = slab.Release()
		if d.closed.Load() {
			return dst, nil, fmt.Errorf("osabs: udp %q: %w", d.name, ErrClosed)
		}
		return dst, nil, fmt.Errorf("osabs: udp %q recv: %w", d.name, err)
	}
	if n == 0 {
		_ = slab.Release()
		d.rxEmpty.Add(uint64(syscalls))
		return dst, nil, nil
	}
	raw := slab.Bytes()
	var bytes uint64
	carved := 0
	for i := 0; i < n; i++ {
		if lens[i] < 0 {
			d.rxTrunc.Add(1)
			continue
		}
		f := raw[i*d.fs : i*d.fs+lens[i] : (i+1)*d.fs]
		bytes += uint64(lens[i])
		dst = append(dst, f)
		carved++
	}
	d.rxSyscalls.Add(uint64(syscalls))
	if carved == 0 {
		_ = slab.Release()
		return dst, nil, nil
	}
	// The arena Get supplied one reference; settle the count to one per
	// carved frame so the last Packet.Release of the batch recycles the
	// slab.
	slab.RetainN(carved - 1)
	d.rxFrames.Add(uint64(carved))
	d.rxBytes.Add(bytes)
	return dst, slab, nil
}

// Wait implements Device: the mmsg backend parks in Go's poller; the
// portable one returns at once, as its poll already waits.
func (d *UDPDevice) Wait(ctx context.Context) { d.sock.wait(ctx) }

// SendBatch implements Device: the whole batch is offered to the kernel
// in as few syscalls as the backend manages; frames the kernel refuses
// (full socket buffers) are dropped and counted, never retried — the
// same discipline as a full TX ring.
func (d *UDPDevice) SendBatch(frames [][]byte) (int, error) {
	if d.closed.Load() {
		return 0, fmt.Errorf("osabs: udp %q: %w", d.name, ErrClosed)
	}
	if len(frames) == 0 {
		return 0, nil
	}
	sent, syscalls, trains, err := d.sock.sendBatch(frames)
	d.txSyscalls.Add(uint64(syscalls))
	d.txTrains.Add(uint64(trains))
	if sent > 0 {
		var bytes uint64
		for _, f := range frames[:sent] {
			bytes += uint64(len(f))
		}
		d.txFrames.Add(uint64(sent))
		d.txBytes.Add(bytes)
	}
	if dropped := len(frames) - sent; dropped > 0 {
		d.txDrops.Add(uint64(dropped))
	}
	if err != nil {
		if d.closed.Load() {
			return sent, fmt.Errorf("osabs: udp %q: %w", d.name, ErrClosed)
		}
		return sent, fmt.Errorf("osabs: udp %q send: %w", d.name, err)
	}
	return sent, nil
}

// Close implements Device.
func (d *UDPDevice) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	return d.sock.close()
}

// UDPStats is the typed counter snapshot.
type UDPStats struct {
	RxFrames, TxFrames     uint64
	RxBytes, TxBytes       uint64
	RxSyscalls, TxSyscalls uint64 // productive syscalls (>=1 frame)
	RxEmptyPolls           uint64
	TxTrains               uint64 // GSO messages (UDP_SEGMENT trains)
	TxDrops                uint64 // kernel refused (buffer full)
	SockDrops              uint64 // kernel RX drops (SO_RXQ_OVFL)
	RxTruncated            uint64 // dropped: longer than FrameSize
	ArenaFailures          uint64
}

// Stats returns the device counters.
func (d *UDPDevice) Stats() UDPStats {
	return UDPStats{
		RxFrames: d.rxFrames.Load(), TxFrames: d.txFrames.Load(),
		RxBytes: d.rxBytes.Load(), TxBytes: d.txBytes.Load(),
		RxSyscalls: d.rxSyscalls.Load(), TxSyscalls: d.txSyscalls.Load(),
		RxEmptyPolls:  d.rxEmpty.Load(),
		TxTrains:      d.txTrains.Load(),
		TxDrops:       d.txDrops.Load(),
		SockDrops:     d.sockDrops.Load(),
		RxTruncated:   d.rxTrunc.Load(),
		ArenaFailures: d.arenaFails.Load(),
	}
}

// StatList implements Device: the syscall-amortisation observables E17
// measures, in the uniform stats-tree form. The frames-per-syscall and
// batch-fill ratio gauges are weighted by syscall count so queue-group
// merges average honestly (core.GW / MergeStats semantics).
func (d *UDPDevice) StatList() []core.Stat {
	st := d.Stats()
	rxCalls := st.RxSyscalls
	fps := 0.0
	if rxCalls > 0 {
		fps = float64(st.RxFrames) / float64(rxCalls)
	}
	txFps := 0.0
	if st.TxSyscalls > 0 {
		txFps = float64(st.TxFrames) / float64(st.TxSyscalls)
	}
	return []core.Stat{
		core.C("udp_rx_frames", "frames", st.RxFrames),
		core.C("udp_tx_frames", "frames", st.TxFrames),
		core.C("udp_rx_bytes", "bytes", st.RxBytes),
		core.C("udp_tx_bytes", "bytes", st.TxBytes),
		core.C("udp_rx_syscalls", "syscalls", st.RxSyscalls),
		core.C("udp_tx_syscalls", "syscalls", st.TxSyscalls),
		core.C("udp_rx_empty_polls", "syscalls", st.RxEmptyPolls),
		core.C("udp_tx_trains", "messages", st.TxTrains),
		core.C("udp_tx_drops", "frames", st.TxDrops),
		core.C("udp_sock_drops", "frames", st.SockDrops),
		core.C("udp_rx_truncated", "frames", st.RxTruncated),
		core.C("udp_arena_failures", "slabs", st.ArenaFailures),
		core.GW("udp_rx_frames_per_syscall", "frames", fps, float64(rxCalls)),
		core.GW("udp_tx_frames_per_syscall", "frames", txFps, float64(st.TxSyscalls)),
		core.GW("udp_batch_fill", "ratio", fps/float64(d.batch), float64(rxCalls)),
	}
}

// NewUDPDeviceGroup opens n devices sharing one listen port through
// SO_REUSEPORT — receive-side scaling over real sockets: the kernel
// spreads inbound flows across the group (a flow-consistent hash, so one
// flow keeps its order on one socket), and each device feeds one pipeline
// replica or ShardedCF lane. Devices are named "<name>:q<i>". n == 1
// degrades to a single plain device, so group construction is portable;
// n > 1 requires SO_REUSEPORT (Linux).
func NewUDPDeviceGroup(cfg UDPConfig, n int) ([]*UDPDevice, error) {
	if n < 1 {
		return nil, fmt.Errorf("osabs: udp group needs >=1 device, got %d", n)
	}
	cfg = cfg.withDefaults()
	base := cfg.Name
	if n > 1 {
		cfg.ReusePort = true
	}
	devs := make([]*UDPDevice, 0, n)
	fail := func(err error) ([]*UDPDevice, error) {
		for _, d := range devs {
			_ = d.Close()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		c := cfg
		if base != "" {
			c.Name = fmt.Sprintf("%s:q%d", base, i)
		}
		d, err := NewUDPDevice(c)
		if err != nil {
			return fail(err)
		}
		devs = append(devs, d)
		if i == 0 {
			// Later members must join the exact port the first bind
			// resolved (Listen may have been ":0").
			cfg.Listen = d.LocalAddr()
		}
	}
	return devs, nil
}

// resolveUDP4 reports the IPv4 form of addr, or ok=false for names and
// v6 addresses (which fall to the portable backend).
func resolveUDP4(addr string) (*net.UDPAddr, bool) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil || ua.IP == nil {
		if err == nil && ua.IP == nil {
			// Unspecified host: treat as v4 any-address.
			ua.IP = net.IPv4zero
			return ua, true
		}
		return nil, false
	}
	if ua.IP.To4() == nil {
		return nil, false
	}
	return ua, true
}

var _ Device = (*UDPDevice)(nil)
