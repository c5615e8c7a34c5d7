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

func (s *payloadSink) Push(p *router.Packet) error {
	s.mu.Lock()
	s.pkts = append(s.pkts, append([]byte(nil), p.Data...))
	s.mu.Unlock()
	p.Release()
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

// fuzzRun drives the payloads through one isolated markerBomb in batches
// of batchSize and reports what the other side observed: forwarded
// payloads in order, total failed-packet count, whether a containment
// error surfaced, the client's emission counter, and the hosted
// component's own delivery count.
func fuzzRun(t *testing.T, payloads [][]byte, batchSize int, cfg Config) (fwd [][]byte, failed int, contained bool, emitted, delivered uint64) {
	t.Helper()
	client, host, cleanup := HostPairCfg(fuzzRegistry(), cfg)
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
	for start := 0; start < len(payloads); start += batchSize {
		end := start + batchSize
		if end > len(payloads) {
			end = len(payloads)
		}
		batch := make([]*router.Packet, 0, end-start)
		for _, pl := range payloads[start:end] {
			batch = append(batch, router.NewPacket(append([]byte(nil), pl...)))
		}
		// A pipelined PushBatch reports failures of EARLIER batches too, so
		// its count is bounded by the stream, not by this batch.
		err := rc.PushBatch(batch)
		failed += router.FailedPackets(err, len(payloads))
		if errors.Is(err, ErrContained) {
			contained = true
		}
	}
	ferr := rc.Flush()
	failed += router.FailedPackets(ferr, len(payloads))
	if errors.Is(ferr, ErrContained) {
		contained = true
	}
	comp, ok := host.capsule.Component("mb")
	if !ok {
		t.Fatal("hosted component vanished")
	}
	impl, _ := comp.Provided(router.IPacketPushID)
	delivered = impl.(*markerBomb).delivered.Load()
	return sink.snapshot(), failed, contained, rc.Emitted(), delivered
}

// FuzzIPCEquivalence pins the tentpole's semantic contract: the batched,
// pipelined binary transport delivers exactly what the synchronous
// per-packet gob path delivers — same forwarded payloads in the same
// order, same per-packet failure cardinality, same containment signal,
// same per-component counters — for arbitrary payloads, batch geometries
// and mid-batch panics (payloads starting with 0xFF detonate the hosted
// component).
func FuzzIPCEquivalence(f *testing.F) {
	f.Add([]byte("hello world this is a packet stream"), uint8(3))
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1))
	f.Add(bytes.Repeat([]byte{7, 0xFF, 9}, 40), uint8(5))
	f.Add([]byte{}, uint8(8))
	f.Add(bytes.Repeat([]byte{0xFF}, 16), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, batchSel uint8) {
		payloads := carvePayloads(data)
		batchSize := 1 + int(batchSel)%9
		bFwd, bFailed, bContained, bEmitted, bDelivered :=
			fuzzRun(t, payloads, batchSize, Config{})
		gFwd, gFailed, gContained, gEmitted, gDelivered :=
			fuzzRun(t, payloads, batchSize, Config{ForceGob: true})
		if len(bFwd) != len(gFwd) {
			t.Fatalf("forwarded count: binary %d, gob %d", len(bFwd), len(gFwd))
		}
		for i := range bFwd {
			if !bytes.Equal(bFwd[i], gFwd[i]) {
				t.Fatalf("payload %d diverges: binary %x, gob %x", i, bFwd[i], gFwd[i])
			}
		}
		if bFailed != gFailed {
			t.Fatalf("failed count: binary %d, gob %d", bFailed, gFailed)
		}
		if bContained != gContained {
			t.Fatalf("containment: binary %v, gob %v", bContained, gContained)
		}
		if bEmitted != gEmitted {
			t.Fatalf("emitted: binary %d, gob %d", bEmitted, gEmitted)
		}
		if bDelivered != gDelivered {
			t.Fatalf("delivered: binary %d, gob %d", bDelivered, gDelivered)
		}
	})
}
