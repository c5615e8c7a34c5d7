package ipc

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"netkit/core"
	"netkit/router"
)

// fuzzRegistry builds the registry used by the equivalence fuzz without a
// *testing.T (fuzz workers call it from F.Fuzz closures).
func fuzzRegistry() *core.ComponentRegistry {
	reg := core.NewComponentRegistry()
	reg.MustRegister("test.MarkerBomb", func(map[string]string) (core.Component, error) {
		m := &markerBomb{
			Base: core.NewBase("test.MarkerBomb"),
			out:  core.NewReceptacle[router.IPacketPush](router.IPacketPushID),
		}
		m.Provide(router.IPacketPushID, m)
		m.AddReceptacle("out", m.out)
		return m, nil
	})
	return reg
}

// payloadSink records every payload it receives, in order.
type payloadSink struct {
	*core.Base
	mu   sync.Mutex
	pkts [][]byte
}

func (s *payloadSink) PushBatch(batch []*router.Packet) error {
	s.mu.Lock()
	for _, p := range batch {
		s.pkts = append(s.pkts, append([]byte(nil), p.Data...))
	}
	s.mu.Unlock()
	for _, p := range batch {
		p.Release()
	}
	return nil
}

func (s *payloadSink) snapshot() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pkts
}

// carvePayloads splits fuzz input into 1..24-byte packet payloads.
func carvePayloads(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 && len(out) < 256 {
		n := 1 + int(data[0])%24
		if n > len(data) {
			n = len(data)
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// fuzzRun drives the payloads through one isolated markerBomb — in
// PushBatch calls of batchSize, or one synchronous crossing per packet (a
// one-packet PushBatch, then Flush) when batchSize is 0 — and reports what the other side observed: forwarded
// payloads in order, total failed-packet count, whether a containment
// error surfaced, the client's emission counter, and the hosted
// component's own delivery count.
func fuzzRun(t *testing.T, payloads [][]byte, batchSize int) (fwd [][]byte, failed int, contained bool, emitted, delivered uint64) {
	t.Helper()
	client, host, cleanup := HostPair(fuzzRegistry())
	defer cleanup()
	rc, err := client.Instantiate("mb", "test.MarkerBomb", nil)
	if err != nil {
		t.Fatal(err)
	}
	cap := core.NewCapsule("parent")
	sink := &payloadSink{Base: core.NewBase("test.PayloadSink")}
	sink.Provide(router.IPacketPushID, sink)
	if err := cap.Insert("remote", rc); err != nil {
		t.Fatal(err)
	}
	if err := cap.Insert("sink", sink); err != nil {
		t.Fatal(err)
	}
	if _, err := cap.Bind("remote", "out", "sink", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}
	tally := func(err error) {
		// A pipelined PushBatch reports failures of EARLIER batches too, so
		// its count is bounded by the stream, not by this batch.
		failed += router.FailedPackets(err, len(payloads))
		if errors.Is(err, ErrContained) {
			contained = true
		}
	}
	step := batchSize
	if step == 0 {
		step = 1
	}
	for start := 0; start < len(payloads); start += step {
		end := min(start+step, len(payloads))
		batch := make([]*router.Packet, 0, end-start)
		for _, pl := range payloads[start:end] {
			batch = append(batch, router.NewPacket(append([]byte(nil), pl...)))
		}
		if batchSize == 0 {
			tally(pushSync(rc, batch[0]))
		} else {
			tally(rc.PushBatch(batch))
		}
	}
	tally(rc.Flush())
	comp, ok := host.capsule.Component("mb")
	if !ok {
		t.Fatal("hosted component vanished")
	}
	impl, _ := comp.Provided(router.IPacketPushID)
	delivered = impl.(*markerBomb).delivered.Load()
	return sink.snapshot(), failed, contained, rc.Emitted(), delivered
}

// FuzzIPCEquivalence pins the isolation boundary to the component model:
// for arbitrary payloads and batch geometries, what crosses is exactly
// what markerBomb would do in-proc. Payloads starting with 0xFF detonate
// the hosted component; every other payload is forwarded. So the
// forwarded payloads are the non-0xFF ones in order, each 0xFF payload is
// one failed packet, containment surfaces iff any failed, and the
// client's emission counter and the hosted delivery count both equal the
// forwarded count. Each input runs twice — pipelined PushBatch with the
// fuzzed batch size, and one synchronous crossing per packet (a one-packet
// PushBatch, then Flush) — and both must equal the model.
func FuzzIPCEquivalence(f *testing.F) {
	f.Add([]byte("hello world this is a packet stream"), uint8(3))
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1))
	f.Add(bytes.Repeat([]byte{7, 0xFF, 9}, 40), uint8(5))
	f.Add([]byte{}, uint8(8))
	f.Add(bytes.Repeat([]byte{0xFF}, 16), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, batchSel uint8) {
		payloads := carvePayloads(data)
		var want [][]byte
		wantFailed := 0
		for _, pl := range payloads {
			if pl[0] == 0xFF {
				wantFailed++
			} else {
				want = append(want, pl)
			}
		}
		for _, batchSize := range []int{1 + int(batchSel)%9, 0} {
			fwd, failed, contained, emitted, delivered := fuzzRun(t, payloads, batchSize)
			if len(fwd) != len(want) {
				t.Fatalf("batch %d: forwarded %d, model %d", batchSize, len(fwd), len(want))
			}
			for i := range fwd {
				if !bytes.Equal(fwd[i], want[i]) {
					t.Fatalf("batch %d: payload %d is %x, model %x", batchSize, i, fwd[i], want[i])
				}
			}
			if failed != wantFailed {
				t.Fatalf("batch %d: failed %d, model %d", batchSize, failed, wantFailed)
			}
			if contained != (wantFailed > 0) {
				t.Fatalf("batch %d: contained %v, model %v", batchSize, contained, wantFailed > 0)
			}
			if emitted != uint64(len(want)) || delivered != uint64(len(want)) {
				t.Fatalf("batch %d: emitted %d, delivered %d, model %d",
					batchSize, emitted, delivered, len(want))
			}
		}
	})
}
