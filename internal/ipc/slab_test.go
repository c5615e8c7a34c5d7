package ipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"netkit/core"
	"netkit/internal/buffers"
	"netkit/router"
)

// stamped is a 32-byte payload that says whether it is still the one sent
// as seq: a zero byte (markerBomb forwards it), the sequence number, then
// bytes derived from it.
func stamped(seq uint64) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b[1:], seq)
	for i := 9; i < len(b); i++ {
		b[i] = byte(seq) ^ byte(i)
	}
	return b
}

// intact reports whether b is exactly stamped(seq).
func intact(b []byte, seq uint64) bool {
	return len(b) == 32 && string(b) == string(stamped(seq))
}

// slabWatch couples the two halves of the lifetime guard: the dying
// component names the slab its packet rode, and the sink on the other
// client holds any packet that arrives in that slab until the test
// settles.
type slabWatch struct {
	target   atomic.Pointer[buffers.Buffer]
	hit      chan struct{}
	progress atomic.Uint64 // packets the sink has taken
}

// lingerPackets is how much of the other client's traffic the dying
// component waits out: enough carves to cycle a freed slab through the
// frameSlabs free list (64 deep) and back into a batch.
const lingerPackets = 256

// releaseThenDie releases its packet, lingers while the other client's
// frames flow through the process-wide frameSlabs pool, then panics. The
// host's containment then releases the same packet again, so the
// descriptor it names must still be this batch's.
type releaseThenDie struct {
	*core.Base
	w *slabWatch
}

func (d *releaseThenDie) PushBatch(batch []*router.Packet) error {
	slab := batch[0].Buf
	for _, p := range batch {
		p.Release()
	}
	d.w.target.Store(slab)
	d.linger()
	d.w.target.Store(nil)
	panic("released, then died")
}

// linger returns once the sink holds a packet from the released slab, the
// other client has moved lingerPackets, or two seconds have passed.
func (d *releaseThenDie) linger() {
	start := d.w.progress.Load()
	deadline := time.Now().Add(2 * time.Second)
	for d.w.progress.Load() < start+lingerPackets && time.Now().Before(deadline) {
		select {
		case <-d.w.hit:
			return
		default:
			runtime.Gosched()
		}
	}
}

// holdSink checks that the emitted packets arrive intact, in order and
// slab-backed. It releases each through the slab it arrived with, so a
// reference dropped by someone else shows as ErrDoubleRelease, and holds
// the packets riding the watched slab until settle.
type holdSink struct {
	*core.Base
	w    *slabWatch
	mu   sync.Mutex
	next uint64
	held []heldPacket
	errs []string
}

type heldPacket struct {
	p   *router.Packet
	buf *buffers.Buffer
	seq uint64
}

func (s *holdSink) failf(format string, args ...any) {
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

func (s *holdSink) release(p *router.Packet, buf *buffers.Buffer, seq uint64) {
	p.Buf = nil
	if err := buf.Release(); err != nil {
		s.failf("packet %d: %v", seq, err)
	}
}

func (s *holdSink) PushBatch(batch []*router.Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range batch {
		seq := s.next
		s.next++
		if !intact(p.Data, seq) {
			s.failf("packet %d arrived as %x", seq, p.Data)
		}
		buf := p.Buf
		switch {
		case buf == nil:
			s.failf("packet %d arrived without its slab", seq)
		case buf == s.w.target.Load():
			s.held = append(s.held, heldPacket{p, buf, seq})
			select {
			case s.w.hit <- struct{}{}:
			default:
			}
		default:
			s.release(p, buf, seq)
		}
	}
	s.w.progress.Add(uint64(len(batch)))
	return nil
}

// settle checks that every held packet still describes its frame, then
// releases it.
func (s *holdSink) settle() (received uint64, errs []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.held {
		if h.p.Buf != h.buf || !intact(h.p.Data, h.seq) {
			s.failf("held packet %d rewritten: buf %p -> %p, data %x", h.seq, h.buf, h.p.Buf, h.p.Data)
		}
		s.release(h.p, h.buf, h.seq)
	}
	s.held = nil
	return s.next, s.errs
}

// TestCarverHoldsSlabThroughContainedPanic is the descriptor lifetime
// guard. A hosted component releases its packet and then panics, so the
// host's containment releases that packet's descriptor a second time,
// while a second client's frames recycle slabs through the same
// frameSlabs pool. The carver's own slab reference keeps the dying
// batch's slab, and so its descriptors, out of the pool until the host is
// done with the batch: every packet is conserved, no slab sees
// ErrDoubleRelease, and the other client's packets arrive intact and in
// order.
func TestCarverHoldsSlabThroughContainedPanic(t *testing.T) {
	w := &slabWatch{hit: make(chan struct{}, 1)}
	reg := batchRegistry(t)
	reg.MustRegister("test.ReleaseThenDie", func(map[string]string) (core.Component, error) {
		d := &releaseThenDie{Base: core.NewBase("test.ReleaseThenDie"), w: w}
		d.Provide(router.IPacketPushID, d)
		return d, nil
	})
	dyingClient, _, cleanupDying := HostPair(reg)
	defer cleanupDying()
	echoClient, _, cleanupEcho := HostPair(reg)
	defer cleanupEcho()
	dying, err := dyingClient.Instantiate("die", "test.ReleaseThenDie", nil)
	if err != nil {
		t.Fatal(err)
	}
	echo, err := echoClient.Instantiate("mb", "test.MarkerBomb", nil)
	if err != nil {
		t.Fatal(err)
	}
	parent := core.NewCapsule("parent")
	sink := &holdSink{Base: core.NewBase("test.HoldSink"), w: w}
	sink.Provide(router.IPacketPushID, sink)
	if err := parent.Insert("remote", echo); err != nil {
		t.Fatal(err)
	}
	if err := parent.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := parent.Bind("remote", "out", "sink", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}

	// The echo client pushes one stamped packet per batch until stopped.
	stop := make(chan struct{})
	var pushed uint64
	echoErr := make(chan error, 1)
	go func() {
		var first error
		for ; ; pushed++ {
			select {
			case <-stop:
				if err := echo.Flush(); first == nil {
					first = err
				}
				echoErr <- first
				return
			default:
			}
			if err := echo.PushBatch([]*router.Packet{router.NewPacket(stamped(pushed))}); err != nil && first == nil {
				first = err
			}
		}
	}()

	const deaths = 4
	failed := 0
	for i := 0; i < deaths; i++ {
		err := pushSync(dying, router.NewPacket(stamped(uint64(i))))
		if !errors.Is(err, ErrContained) {
			t.Errorf("death %d: want ErrContained, got %v", i, err)
		}
		failed += router.FailedPackets(err, 1)
	}
	close(stop)
	if err := <-echoErr; err != nil {
		t.Fatalf("echo client: %v", err)
	}
	received, errs := sink.settle()
	for _, e := range errs {
		t.Error(e)
	}
	// in == out + dropped + errs on both clients: every dying packet is
	// one contained failure, every echoed one is emitted and received.
	if in, out := dying.TxFrames(), dying.AckedFrames()-uint64(failed); in != deaths ||
		in != out+dying.Dropped()+uint64(failed) || failed != deaths || dying.contained.Load() != deaths {
		t.Errorf("dying client: in %d, out %d, dropped %d, failed %d, contained %d",
			in, out, dying.Dropped(), failed, dying.contained.Load())
	}
	if in := echo.TxFrames(); in != pushed || echo.Emitted() != pushed || received != pushed ||
		echo.Dropped()+echo.Lost() != 0 {
		t.Errorf("echo client: in %d, emitted %d, received %d, dropped %d, lost %d",
			in, echo.Emitted(), received, echo.Dropped(), echo.Lost())
	}
}

// carveFrame is the tail of a 'B' frame: count, name, count×(len|payload).
func carveFrame(count, size int) []byte {
	b := appendU32(nil, uint32(count))
	b = appendStr(b, "sink")
	payload := make([]byte, size)
	for i := 0; i < count; i++ {
		b = appendU32(b, uint32(size))
		b = append(b, payload...)
	}
	return b
}

// carveOnce reads frame into a slab from pool and carves it as the host
// does, releasing every packet and then the carver's own reference.
func carveOnce(t testing.TB, pool *buffers.Pool, frame []byte) *buffers.Buffer {
	slab, err := pool.Get(len(frame))
	if err != nil {
		t.Fatal(err)
	}
	copy(slab.Bytes(), frame)
	r := binReader{b: slab.Bytes()}
	count := int(r.u32())
	r.bytes(int(r.u16())) // the name, skipped as serveBatch reads it
	batch, _, ok := carve(&r, count, slab)
	if !ok || len(batch) != count {
		t.Fatalf("carve: ok %v, %d of %d packets", ok, len(batch), count)
	}
	for _, p := range batch {
		p.Release()
	}
	router.PutBatch(batch)
	releaseSlab(slab)
	return slab
}

// TestCarveRecycledSlabAllocs: a 32-packet frame carved over a recycled
// slab mints its packets into the descriptors the slab kept, so the carve
// allocates nothing.
func TestCarveRecycledSlabAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes router.GetBatch's sync.Pool drop batches")
	}
	pool := buffers.MustNewPool([]int{4096}, 1, 0)
	frame := carveFrame(32, 64)
	carveOnce(t, pool, frame) // the first carve attaches the descriptors
	allocs := testing.AllocsPerRun(1000, func() { carveOnce(t, pool, frame) })
	if allocs != 0 {
		t.Fatalf("carve of 32 packets over a recycled slab: %.0f allocs, want 0", allocs)
	}
}

// TestRuntFrameKeepsNoDescriptors: a frame of 10 000 zero-length packets
// fits a 64 KiB slab, but its descriptors (1.4 MB) are past what the slab
// may keep, so they are carved on the heap and the slab is recycled
// without them.
func TestRuntFrameKeepsNoDescriptors(t *testing.T) {
	const runts = 10000
	var mu sync.Mutex
	var slabs []*buffers.Buffer
	reg := testRegistry(t)
	reg.MustRegister("test.SlabSink", func(map[string]string) (core.Component, error) {
		s := &sinkFunc{Base: core.NewBase("test.SlabSink"), f: func(batch []*router.Packet) {
			mu.Lock()
			for _, p := range batch {
				if len(slabs) == 0 || slabs[len(slabs)-1] != p.Buf {
					slabs = append(slabs, p.Buf)
				}
			}
			mu.Unlock()
		}}
		s.Provide(router.IPacketPushID, s)
		return s, nil
	})
	client, _, cleanup := HostPair(reg)
	defer cleanup()
	rc, err := client.Instantiate("sink", "test.SlabSink", nil)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*router.Packet, runts)
	for i := range batch {
		batch[i] = router.NewPacket(nil)
	}
	if err := rc.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := rc.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slabs) != 1 || slabs[0] == nil || slabs[0].Cap() != 64<<10 {
		t.Fatalf("want the frame in one 64 KiB slab, got %v", slabs)
	}
	slab := slabs[0]
	if refs := slab.Refs(); refs != 0 {
		t.Fatalf("slab not recycled: %d references", refs)
	}
	if d := slab.Descs(); d != nil && reflect.ValueOf(d).Len() > slab.Cap()/68 {
		t.Fatalf("recycled slab keeps %d descriptors", reflect.ValueOf(d).Len())
	}
}

// sinkFunc calls f on every batch and releases its packets.
type sinkFunc struct {
	*core.Base
	f func([]*router.Packet)
}

func (s *sinkFunc) PushBatch(batch []*router.Packet) error {
	s.f(batch)
	for _, p := range batch {
		p.Release()
	}
	return nil
}
