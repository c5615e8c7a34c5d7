package osabs

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

func TestNICValidation(t *testing.T) {
	if _, err := NewNIC("", 1, 1); err == nil {
		t.Fatal("want error for empty name")
	}
	if _, err := NewNIC("eth0", 0, 1); err == nil {
		t.Fatal("want error for zero rx depth")
	}
	if _, err := NewNIC("eth0", 1, 0); err == nil {
		t.Fatal("want error for zero tx depth")
	}
}

func TestNICInjectRecv(t *testing.T) {
	n, err := NewNIC("eth0", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name() != "eth0" {
		t.Fatal("name")
	}
	if err := n.Inject([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f, _, err := n.RecvBatchInto(nil, 4)
	if err != nil || len(f) != 1 || len(f[0]) != 3 {
		t.Fatalf("recv = %v %v", f, err)
	}
	if f, _, err := n.RecvBatchInto(nil, 4); err != nil || len(f) != 0 {
		t.Fatalf("idle recv = %v %v", f, err)
	}
	s := n.Stats()
	if s.RxFrames != 1 || s.RxBytes != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNICRxOverflowDrops(t *testing.T) {
	n, err := NewNIC("eth0", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := n.Inject([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Inject([]byte{9}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	if n.Stats().RxDrops != 1 {
		t.Fatalf("drops = %d", n.Stats().RxDrops)
	}
}

func TestNICSendDrain(t *testing.T) {
	n, err := NewNIC("eth0", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send([]byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send([]byte{3}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	f, err := n.DrainTx()
	if err != nil || f[0] != 1 {
		t.Fatalf("drain = %v %v", f, err)
	}
	if _, err := n.DrainTx(); err != nil {
		t.Fatal(err)
	}
	if _, err := n.DrainTx(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if n.Stats().TxDrops != 1 || n.Stats().TxFrames != 2 {
		t.Fatalf("stats = %+v", n.Stats())
	}
}

func TestNICClose(t *testing.T) {
	n, err := NewNIC("eth0", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close() // idempotent
	if err := n.Inject([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := n.Send([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, _, err := n.RecvBatchInto(nil, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestNICDoorbell: a receiver that found the ring empty sleeps on the
// doorbell and wakes to the injected frame; tokens never pile up beyond
// one, and Close rings so a sleeper wakes to ErrClosed.
func TestNICDoorbell(t *testing.T) {
	n, err := NewNIC("eth0", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 1)
	go func() {
		for {
			f, _, err := n.RecvBatchInto(nil, 1)
			if err != nil {
				done <- nil
				return
			}
			if len(f) == 1 {
				done <- f[0]
				return
			}
			<-n.Doorbell()
		}
	}()
	if err := n.Inject([]byte{7}); err != nil {
		t.Fatal(err)
	}
	if f := <-done; f == nil || f[0] != 7 {
		t.Fatalf("woken recv = %v", f)
	}
	for i := 0; i < 2; i++ {
		if err := n.Inject([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(n.Doorbell()); got != 1 {
		t.Fatalf("doorbell holds %d tokens, want 1", got)
	}
	<-n.Doorbell()
	if err := n.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := len(n.Doorbell()); got != 0 {
		t.Fatal("a TX send rang the RX doorbell")
	}
	n.Close()
	select {
	case <-n.Doorbell():
	default:
		t.Fatal("Close did not ring the doorbell")
	}
}

func TestKernelChannel(t *testing.T) {
	if _, err := NewKernelChannel(0); err == nil {
		t.Fatal("want error for zero depth")
	}
	k, err := NewKernelChannel(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := k.Put([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Put([]byte{9}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	if k.Len() != 3 {
		t.Fatalf("len = %d", k.Len())
	}
	batch := k.GetBatch(2)
	if len(batch) != 2 || batch[0][0] != 0 || batch[1][0] != 1 {
		t.Fatalf("batch = %v", batch)
	}
	batch = k.GetBatch(10)
	if len(batch) != 1 {
		t.Fatalf("second batch = %v", batch)
	}
	if got := k.GetBatch(10); len(got) != 0 {
		t.Fatalf("empty batch = %v", got)
	}
	if got := k.GetBatch(0); got != nil {
		t.Fatalf("zero batch = %v", got)
	}
	passed, dropped := k.Stats()
	if passed != 3 || dropped != 1 {
		t.Fatalf("stats = %d/%d", passed, dropped)
	}
	k.Close()
	k.Close() // idempotent
	if err := k.Put([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

// TestKernelChannelCloseUnderPutters: Close races concurrent putters and
// a receiver asleep on the doorbell. No put panics, every putter ends on
// ErrClosed, the receiver wakes to ErrClosed, and every accepted frame is
// received.
func TestKernelChannelCloseUnderPutters(t *testing.T) {
	k, err := NewKernelChannel(16)
	if err != nil {
		t.Fatal(err)
	}
	received := make(chan int, 1)
	go func() {
		n := 0
		for {
			got, _, err := k.RecvBatchInto(nil, 8)
			n += len(got)
			if err != nil {
				received <- n
				return
			}
			if len(got) == 0 {
				<-k.Doorbell()
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := k.Put([]byte{1}); errors.Is(err, ErrClosed) {
					return
				} else if err != nil && !errors.Is(err, ErrOverflow) {
					errs <- err
					return
				}
				runtime.Gosched() // let the receiver drain
			}
		}()
	}
	for passed, _ := k.Stats(); passed < 1000; passed, _ = k.Stats() {
		runtime.Gosched()
	}
	k.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n := <-received
	if passed, _ := k.Stats(); uint64(n) != passed {
		t.Fatalf("received %d of %d accepted frames", n, passed)
	}
}

// TestNICOverflowAccountingExact floods both rings past capacity and
// asserts the conservation law the stats tree depends on: every offered
// frame is either counted delivered or counted dropped, with byte
// counters tracking only the delivered ones.
func TestNICOverflowAccountingExact(t *testing.T) {
	n, err := NewNIC("eth0", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const offered = 50
	frame := []byte{1, 2, 3, 4, 5}
	var injectOK, sendOK int
	for i := 0; i < offered; i++ {
		if n.Inject(frame) == nil {
			injectOK++
		}
		if n.Send(frame) == nil {
			sendOK++
		}
	}
	st := n.Stats()
	if st.RxFrames != uint64(injectOK) || st.RxFrames+st.RxDrops != offered {
		t.Fatalf("rx conservation: frames %d drops %d offered %d (accepted %d)",
			st.RxFrames, st.RxDrops, offered, injectOK)
	}
	if st.TxFrames != uint64(sendOK) || st.TxFrames+st.TxDrops != offered {
		t.Fatalf("tx conservation: frames %d drops %d offered %d (accepted %d)",
			st.TxFrames, st.TxDrops, offered, sendOK)
	}
	if st.RxBytes != uint64(len(frame))*st.RxFrames || st.TxBytes != uint64(len(frame))*st.TxFrames {
		t.Fatalf("byte counters count dropped frames: %+v", st)
	}
	// Rings were sized 8: exactly 8 of each must have been accepted.
	if injectOK != 8 || sendOK != 8 {
		t.Fatalf("accepted %d/%d, want 8/8", injectOK, sendOK)
	}
	// Draining and re-offering accounts the second wave on top.
	for i := 0; i < 8; i++ {
		if f, _, err := n.RecvBatchInto(nil, 1); err != nil || len(f) != 1 {
			t.Fatal(err)
		}
		if _, err := n.DrainTx(); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Inject(frame); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(frame); err != nil {
		t.Fatal(err)
	}
	st = n.Stats()
	if st.RxFrames != 9 || st.TxFrames != 9 || st.RxDrops != offered-8 || st.TxDrops != offered-8 {
		t.Fatalf("post-drain accounting: %+v", st)
	}
}

// TestNICSendBatchAccounting: the Device batch path must account exactly
// like the per-frame path — accepted+dropped == offered, prefix-agnostic.
func TestNICSendBatchAccounting(t *testing.T) {
	n, err := NewNIC("eth0", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 10)
	for i := range frames {
		frames[i] = []byte{byte(i)}
	}
	sent, err := n.SendBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	if sent != 4 {
		t.Fatalf("sent %d of 10 into a 4-deep ring", sent)
	}
	st := n.Stats()
	if st.TxFrames != 4 || st.TxDrops != 6 {
		t.Fatalf("batch accounting: %+v", st)
	}
}

// TestNICRecvAfterClose: Close must not turn a receive into a stream of
// empty polls; queued frames drain, then ErrClosed.
func TestNICRecvAfterClose(t *testing.T) {
	n, err := NewNIC("eth0", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Inject([]byte{42}); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	f, _, err := n.RecvBatchInto(nil, 4)
	if err != nil || len(f) != 1 || f[0][0] != 42 {
		t.Fatalf("queued frame after close: %v %v", f, err)
	}
	if _, _, err := n.RecvBatchInto(nil, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("drained closed NIC: want ErrClosed, got %v", err)
	}
	if err := n.Inject([]byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("inject after close: %v", err)
	}
}

// TestRecvBatchInto: the Device receive path of both channel-backed
// devices drains non-blocking and reports closure only when dry — a frame
// queued before Close is still delivered after it.
func TestRecvBatchInto(t *testing.T) {
	n, err := NewNIC("eth0", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernelChannel(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dev    Device
		inject func([]byte) error
	}{{n, n.Inject}, {k, k.Put}} {
		t.Run(tc.dev.Name(), func(t *testing.T) {
			for i := 0; i < 5; i++ {
				if err := tc.inject([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			dst, slab, err := tc.dev.RecvBatchInto(nil, 3)
			if err != nil || slab != nil || len(dst) != 3 {
				t.Fatalf("first drain: %d frames slab=%v err=%v", len(dst), slab, err)
			}
			dst, _, err = tc.dev.RecvBatchInto(dst, 8)
			if err != nil || len(dst) != 5 {
				t.Fatalf("second drain: %d frames err=%v", len(dst), err)
			}
			for i, f := range dst {
				if f[0] != byte(i) {
					t.Fatalf("order: frame %d = %d", i, f[0])
				}
			}
			if dst, _, err := tc.dev.RecvBatchInto(nil, 8); err != nil || len(dst) != 0 {
				t.Fatalf("idle drain: %d frames err=%v", len(dst), err)
			}
			if err := tc.inject([]byte{5}); err != nil {
				t.Fatal(err)
			}
			if err := tc.dev.Close(); err != nil {
				t.Fatal(err)
			}
			if dst, _, err := tc.dev.RecvBatchInto(nil, 8); err != nil || len(dst) != 1 {
				t.Fatalf("drain after close: %d frames err=%v", len(dst), err)
			}
			if _, _, err := tc.dev.RecvBatchInto(nil, 8); !errors.Is(err, ErrClosed) {
				t.Fatalf("closed drain: %v", err)
			}
		})
	}
}

// TestKernelChannelPutBatch: batch symmetry with GetBatchInto — exact
// accepted prefix-free accounting, counters settled per batch.
func TestKernelChannelPutBatch(t *testing.T) {
	k, err := NewKernelChannel(4)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, 7)
	for i := range frames {
		frames[i] = []byte{byte(i)}
	}
	accepted, err := k.PutBatch(frames)
	if !errors.Is(err, ErrOverflow) {
		t.Fatalf("overflowing PutBatch: %v", err)
	}
	if accepted != 4 {
		t.Fatalf("accepted %d of 7 into depth 4", accepted)
	}
	passed, dropped := k.Stats()
	if passed != 4 || dropped != 3 {
		t.Fatalf("counters: passed %d dropped %d", passed, dropped)
	}
	got := k.GetBatch(16)
	if len(got) != 4 {
		t.Fatalf("drained %d", len(got))
	}
	for i, f := range got {
		if f[0] != byte(i) {
			t.Fatalf("order: %d = %d", i, f[0])
		}
	}
	if n, err := k.PutBatch(frames[:2]); n != 2 || err != nil {
		t.Fatalf("fitting PutBatch: n=%d err=%v", n, err)
	}
	k.Close()
	if _, err := k.PutBatch(frames[:1]); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed PutBatch: %v", err)
	}
}

// TestSendBatchCopies: both in-memory devices queue copies on SendBatch,
// so the caller may reuse its bytes at once, while the per-frame Send and
// Put retain the caller's slice.
func TestSendBatchCopies(t *testing.T) {
	n, err := NewNIC("eth0", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernelChannel(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dev   Device
		one   func([]byte) error
		drain func() [][]byte
	}{
		{n, n.Send, func() [][]byte {
			var out [][]byte
			for f, err := n.DrainTx(); err == nil; f, err = n.DrainTx() {
				out = append(out, f)
			}
			return out
		}},
		{k, k.Put, func() [][]byte { return k.GetBatch(4) }},
	} {
		t.Run(tc.dev.Name(), func(t *testing.T) {
			buf := []byte("ab")
			if sent, err := tc.dev.SendBatch([][]byte{buf[:1], buf[1:]}); sent != 2 || err != nil {
				t.Fatalf("SendBatch: sent %d err %v", sent, err)
			}
			if err := tc.one(buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "xy")
			got := tc.drain()
			if len(got) != 3 || string(got[0]) != "a" || string(got[1]) != "b" {
				t.Fatalf("batch frames %q: want copies \"a\" \"b\"", got)
			}
			if string(got[2]) != "xy" {
				t.Fatalf("single frame %q: want the retained caller slice", got[2])
			}
			if cap(got[0]) != 1 {
				t.Fatalf("copy cap %d lets an append reach its neighbour", cap(got[0]))
			}
		})
	}
}
