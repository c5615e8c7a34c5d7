//go:build linux && (amd64 || arm64)

package osabs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"
)

// mixedStream is a frame stream that exercises every train boundary: runs
// of equal sizes (one longer than gsoMaxSegs, one capped by gsoMaxBytes),
// singletons between them and a zero-length frame. Each non-empty frame
// starts with its index, so order and identity are both checkable.
func mixedStream() [][]byte {
	var out [][]byte
	add := func(count, size int) {
		for i := 0; i < count; i++ {
			f := make([]byte, size)
			copy(f, fmt.Sprintf("%04d", len(out)))
			out = append(out, f)
		}
	}
	// First batch of 128.
	add(100, 64) // one run across the 64-segment cap: trains of 64 + 36
	add(1, 300)  // singleton
	add(1, 0)    // zero-length frame
	add(5, 64)   // short run
	add(1, 65)   // singleton of a neighbouring size
	add(20, 7)   // run ending at the batch boundary
	// Second batch.
	add(40, 1800) // run split by the 65 507-byte cap: trains of 36 + 4
	add(2, 5)     // shortest train
	add(1, 0)
	add(7, 64)
	return out
}

// sendStream sends frames in batches of batch and drains rx after each
// one, so the socket buffers never hold more than one batch.
func sendStream(t *testing.T, tx, rx *UDPDevice, frames [][]byte, batch int) [][]byte {
	t.Helper()
	var got [][]byte
	for off := 0; off < len(frames); off += batch {
		b := frames[off:min(off+batch, len(frames))]
		n, err := tx.SendBatch(b)
		if err != nil || n != len(b) {
			t.Fatalf("send at %d: %d of %d, %v", off, n, len(b), err)
		}
		got = append(got, recvAll(t, rx, len(b), 5*time.Second)...)
	}
	return got
}

// TestUDPBackendEquivalenceGSO: one mixed stream through a GSO mmsg
// sender, a plain mmsg sender and a portable sender into the same
// receiver arrives byte-identical and in order from all three.
func TestUDPBackendEquivalenceGSO(t *testing.T) {
	const batch = 128
	rx, err := NewUDPDevice(UDPConfig{Name: "rx", Listen: "127.0.0.1:0", Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	stream := mixedStream()
	for _, tc := range []struct {
		name           string
		portable, gso  bool
		wantTrains     uint64
		wantTxSyscalls uint64
	}{
		// Four trains per batch (see mixedStream); the 300 B, 65 B
		// and empty frames go plain.
		{"gso", false, true, 8, 2},
		{"plain-mmsg", false, false, 0, 2},
		{"portable", true, false, 0, uint64(len(stream))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tx, err := NewUDPDevice(UDPConfig{
				Name: "tx", Listen: "127.0.0.1:0", Peer: rx.LocalAddr(), Batch: batch,
				ForcePortable: tc.portable,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			if ms, ok := tx.sock.(*mmsgSocket); ok && !tc.gso {
				ms.noGSO = true
			}
			got := sendStream(t, tx, rx, stream, batch)
			if len(got) != len(stream) {
				t.Fatalf("received %d of %d frames", len(got), len(stream))
			}
			for i := range stream {
				if !bytes.Equal(got[i], stream[i]) {
					t.Fatalf("frame %d: got %d B %q, want %d B %q",
						i, len(got[i]), got[i][:min(4, len(got[i]))],
						len(stream[i]), stream[i][:min(4, len(stream[i]))])
				}
			}
			st := tx.Stats()
			if st.TxTrains != tc.wantTrains || st.TxSyscalls != tc.wantTxSyscalls {
				t.Fatalf("tx trains %d syscalls %d, want %d and %d",
					st.TxTrains, st.TxSyscalls, tc.wantTrains, tc.wantTxSyscalls)
			}
			if st.TxFrames != uint64(len(stream)) || st.TxDrops != 0 {
				t.Fatalf("tx frames %d drops %d, want %d and 0", st.TxFrames, st.TxDrops, len(stream))
			}
		})
	}
}

// TestUDPGSOFallbackOnRefusal: SO_NO_CHECK makes the kernel refuse a GSO
// train with EINVAL. The socket then sends plain for good: every frame of
// the refused batch and the next arrives exactly once and in order, and
// udp_tx_trains stops growing.
func TestUDPGSOFallbackOnRefusal(t *testing.T) {
	tx, rx := udpPair(t, false, false, 32)
	ms := tx.sock.(*mmsgSocket)
	seq := 0
	batch := func() [][]byte {
		// A 10 B singleton ahead of a 31-frame run: sendmmsg sends the
		// singleton and stops at the train.
		b := [][]byte{[]byte(fmt.Sprintf("%04d-single", seq))}
		seq++
		for i := 0; i < 31; i++ {
			f := make([]byte, 64)
			copy(f, fmt.Sprintf("%04d", seq))
			b = append(b, f)
			seq++
		}
		return b
	}
	var want [][]byte
	send := func() {
		b := batch()
		want = append(want, b...)
		if n, err := tx.SendBatch(b); err != nil || n != len(b) {
			t.Fatalf("send: %d of %d, %v", n, len(b), err)
		}
	}
	send()
	if st := tx.Stats(); st.TxTrains != 1 || st.TxSyscalls != 1 {
		t.Fatalf("before refusal: trains %d syscalls %d, want 1 and 1", st.TxTrains, st.TxSyscalls)
	}
	if err := syscall.SetsockoptInt(ms.fd, syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1); err != nil {
		t.Fatalf("SO_NO_CHECK: %v", err)
	}
	send() // singleton, refused train, plain retry: 3 syscalls
	if !ms.noGSO {
		t.Fatal("socket still sends trains after the kernel refused one")
	}
	send() // plain from the start: 1 syscall
	st := tx.Stats()
	if st.TxTrains != 1 || st.TxSyscalls != 5 || st.TxFrames != 96 || st.TxDrops != 0 {
		t.Fatalf("after refusal: trains %d syscalls %d frames %d drops %d, want 1, 5, 96, 0",
			st.TxTrains, st.TxSyscalls, st.TxFrames, st.TxDrops)
	}
	got := recvAll(t, rx, len(want), 5*time.Second)
	// Nothing beyond the 96 may trail in: a duplicate would show here.
	got = append(got, recvAll(t, rx, 1, 20*time.Millisecond)...)
	if len(got) != len(want) {
		t.Fatalf("received %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d: got %q want %q", i, got[i][:4], want[i][:4])
		}
	}
}

// TestUDPSendRacesClose: trains in flight while the device closes end in
// ErrClosed, never a send on a recycled fd (run under -race).
func TestUDPSendRacesClose(t *testing.T) {
	tx, _ := udpPair(t, false, false, 32)
	frames := make([][]byte, 32)
	for i := range frames {
		frames[i] = make([]byte, 64)
	}
	sending, done := make(chan struct{}), make(chan error)
	go func() {
		for i := 0; ; i++ {
			if _, err := tx.SendBatch(frames); err != nil {
				done <- err
				return
			}
			if i == 0 {
				close(sending)
			}
		}
	}()
	<-sending
	if err := tx.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

// TestUDPWaitWakesAfterEmptyPoll: a datagram that lands after an empty
// poll ends the Wait that follows it, whether it landed before the wait
// began or while it sleeps. Either would be a lost wake if the wait
// trusted the poller's readiness without trying the socket.
func TestUDPWaitWakesAfterEmptyPoll(t *testing.T) {
	tx, rx := udpPair(t, false, false, 8)
	frame := [][]byte{[]byte("wake")}
	for i := 0; i < 1000; i++ {
		if got, _, err := rx.RecvBatchInto(nil, 8); len(got) != 0 || err != nil {
			t.Fatalf("round %d: poll before the send: %d frames, %v", i, len(got), err)
		}
		send := func() {
			if n, err := tx.SendBatch(frame); n != 1 || err != nil {
				t.Errorf("round %d: send %d, %v", i, n, err)
			}
		}
		sent := make(chan struct{})
		if i%2 == 0 {
			send()
			close(sent)
		} else {
			go func() { send(); close(sent) }()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		rx.Wait(ctx)
		expired := ctx.Err() != nil
		cancel()
		<-sent
		if expired {
			t.Fatalf("round %d: a datagram after an empty poll did not end Wait", i)
		}
		if got := recvAll(t, rx, 1, time.Second); len(got) != 1 {
			t.Fatalf("round %d: received %d frames after the wake", i, len(got))
		}
	}
}

// TestUDPWaitEnds: an idle Wait ends when its ctx is cancelled, at once
// on a ctx already done, and when the device closes. The interrupt does
// not fail the polls that follow it.
func TestUDPWaitEnds(t *testing.T) {
	tx, rx := udpPair(t, false, false, 8)
	returned := func(name string, wait func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: Wait did not return", name)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	returned("cancelled while waiting", func() { rx.Wait(ctx) })
	returned("already cancelled", func() { rx.Wait(ctx) })
	if _, err := tx.SendBatch([][]byte{[]byte("after")}); err != nil {
		t.Fatal(err)
	}
	if got := recvAll(t, rx, 1, time.Second); len(got) != 1 {
		t.Fatalf("a poll after an interrupted wait received %d frames", len(got))
	}
	time.AfterFunc(20*time.Millisecond, func() { _ = rx.Close() })
	returned("device closed", func() { rx.Wait(context.Background()) })
	if _, _, err := rx.RecvBatchInto(nil, 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v, want ErrClosed", err)
	}
}
