package ipc

import (
	"errors"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"netkit/core"
	"netkit/packet"
	"netkit/router"
)

var (
	srcA = netip.MustParseAddr("10.0.0.1")
	dstA = netip.MustParseAddr("192.168.1.1")
)

func udpPkt(t *testing.T, port uint16) *router.Packet {
	t.Helper()
	b, err := packet.BuildUDP4(srcA, dstA, 1000, port, 64, []byte("remote"))
	if err != nil {
		t.Fatal(err)
	}
	return router.NewPacket(b)
}

// bomb panics on push: the crash-containment fixture.
type bomb struct{ *core.Base }

func (b *bomb) PushBatch([]*router.Packet) error { panic("bomb detonated") }

// pushSync is the synchronous one-packet crossing: a one-packet batch,
// then a Flush that waits for the host's ack and harvests the outcome.
func pushSync(rc *RemoteComponent, p *router.Packet) error {
	err := rc.PushBatch([]*router.Packet{p})
	if ferr := rc.Flush(); ferr != nil {
		return ferr
	}
	return err
}

func testRegistry(t *testing.T) *core.ComponentRegistry {
	t.Helper()
	reg := core.NewComponentRegistry()
	reg.MustRegister(router.TypeCounter, func(map[string]string) (core.Component, error) {
		return router.NewCounter(), nil
	})
	reg.MustRegister(router.TypeClassifier, func(map[string]string) (core.Component, error) {
		return router.NewClassifier("match", "default")
	})
	reg.MustRegister("test.Bomb", func(map[string]string) (core.Component, error) {
		b := &bomb{Base: core.NewBase("test.Bomb")}
		b.Provide(router.IPacketPushID, b)
		return b, nil
	})
	return reg
}

func TestInstantiateAndPush(t *testing.T) {
	client, _, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ann := rc.Annotations()["netkit.remote"]; ann != "true" {
		t.Fatal("missing remote annotation")
	}
	if _, ok := rc.Provided(router.IPacketPushID); !ok {
		t.Fatal("stand-in does not provide IPacketPush")
	}
	if err := pushSync(rc, udpPkt(t, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestInstantiateUnknownType(t *testing.T) {
	client, _, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	_, err := client.Instantiate("x", "test.Unknown", nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
}

func TestRemoteOutputFlowsBack(t *testing.T) {
	client, _, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The Counter's "out" receptacle is mirrored locally: bind it inside a
	// local capsule to a local collector.
	cap := core.NewCapsule("parent")
	collect := &localSink{Base: core.NewBase("test.Sink")}
	collect.Provide(router.IPacketPushID, collect)
	if err := cap.Insert("remote", rc); err != nil {
		t.Fatal(err)
	}
	if err := cap.Insert("collect", collect); err != nil {
		t.Fatal(err)
	}
	if _, err := cap.Bind("remote", "out", "collect", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if err := pushSync(rc, udpPkt(t, uint16(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(2 * time.Second)
	for collect.count() < n {
		select {
		case <-deadline:
			t.Fatalf("round-tripped %d of %d", collect.count(), n)
		case <-time.After(time.Millisecond):
		}
	}
	if rc.Emitted() != n {
		t.Fatalf("emitted = %d", rc.Emitted())
	}
}

type localSink struct {
	*core.Base
	mu   sync.Mutex
	pkts int
}

func (s *localSink) PushBatch(batch []*router.Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkts += len(batch)
	return nil
}

func (s *localSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pkts
}

func TestEmissionWithoutBindingCounted(t *testing.T) {
	client, _, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pushSync(rc, udpPkt(t, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for rc.Lost() < 1 {
		select {
		case <-deadline:
			t.Fatalf("lost = %d, want 1", rc.Lost())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestCrashContainment(t *testing.T) {
	client, host, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("b", "test.Bomb", nil)
	if err != nil {
		t.Fatal(err)
	}
	err = pushSync(rc, udpPkt(t, 1))
	if !errors.Is(err, ErrContained) {
		t.Fatalf("want ErrContained, got %v", err)
	}
	_ = host
	// The host survives: further instantiation succeeds.
	rc2, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatalf("host died with the component: %v", err)
	}
	if err := pushSync(rc2, udpPkt(t, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteClassifier(t *testing.T) {
	client, _, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cls", router.TypeClassifier, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rc.Provided(router.IClassifierID); !ok {
		t.Fatal("classifier interface not mirrored")
	}
	outs := rc.FilterOutputs()
	if len(outs) != 2 {
		t.Fatalf("outputs = %v", outs)
	}
	id, err := rc.RegisterFilter("udp and dst port 53", 5, "match")
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero filter id")
	}
	if _, err := rc.RegisterFilter("udp", 5, "ghost"); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote for bad output, got %v", err)
	}
	if err := rc.UnregisterFilter(id); err != nil {
		t.Fatal(err)
	}
	if err := rc.UnregisterFilter(id); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote for double unregister, got %v", err)
	}
}

func TestRemoteSatisfiesRouterCFTrustRule(t *testing.T) {
	client, _, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	rc.SetAnnotation(core.AnnotTrust, "untrusted")
	cap := core.NewCapsule("strict-parent")
	fw, err := router.NewFramework(cap, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("untrusted-remote", rc); err != nil {
		t.Fatalf("remote stand-in should satisfy strict trust rule: %v", err)
	}
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	client, _, cleanup := HostPair(testRegistry(t))
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	cleanup()
	if err := pushSync(rc, udpPkt(t, 1)); err == nil {
		t.Fatal("push succeeded after close")
	}
	if _, err := client.Instantiate("x", router.TypeCounter, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestConcurrentRemotePushes(t *testing.T) {
	client, _, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := pushSync(rc, udpPkt(t, 53)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInstantiateRefusesLongName: a name the wire's u16 length cannot
// carry is refused before any call, and the transport stays usable.
func TestInstantiateRefusesLongName(t *testing.T) {
	client, host, cleanup := HostPair(testRegistry(t))
	defer cleanup()
	if _, err := client.Instantiate(strings.Repeat("n", 1<<16), router.TypeCounter, nil); err == nil {
		t.Fatal("instantiated a component under a 64 KiB name")
	}
	if n := host.gobOps.Load(); n != 0 {
		t.Fatalf("host served %d control calls for a refused name", n)
	}
	rc, err := client.Instantiate("cnt", router.TypeCounter, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pushSync(rc, udpPkt(t, 1)); err != nil {
		t.Fatal(err)
	}
}
