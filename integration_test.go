package netkit

// Cross-strata integration tests: the Figure-1 stratification exercised as
// one system, and the remaining end-to-end properties DESIGN.md names.

import (
	"context"
	"testing"
	"time"

	"netkit/core"
	"netkit/internal/appsvc"
	"netkit/internal/coord"
	"netkit/internal/netsim"
	"netkit/internal/osabs"
	"netkit/internal/trace"
	"netkit/router"
)

// TestStrataIntegration builds all four strata into one running node:
// stratum 1 devices feed a stratum 2 Router CF pipeline that hands
// selected flows to a stratum 3 execution environment, while a stratum 4
// agent (on a netsim substrate) reserves resources the router honours.
func TestStrataIntegration(t *testing.T) {
	capsule := core.NewCapsule("node")
	fw, err := router.NewFramework(capsule, false)
	if err != nil {
		t.Fatal(err)
	}

	// Stratum 1: devices.
	inNIC, err := osabs.NewNIC("eth0", 2048, 2048)
	if err != nil {
		t.Fatal(err)
	}
	outNIC, err := osabs.NewNIC("eth1", 2048, 8192)
	if err != nil {
		t.Fatal(err)
	}

	// Stratum 2: source -> classifier -> {EE path, fast path} -> sink.
	src, err := router.NewNICSource(inNIC, nil)
	if err != nil {
		t.Fatal(err)
	}
	cls, err := router.NewClassifier("media", "default")
	if err != nil {
		t.Fatal(err)
	}
	// Stratum 3: the media path runs through an execution environment.
	ee := appsvc.NewExecEnv()
	if err := ee.Attach("udp", &appsvc.MediaFilter{KeepOneIn: 2}, appsvc.Sandbox{}); err != nil {
		t.Fatal(err)
	}
	snk, err := router.NewNICSink(outNIC)
	if err != nil {
		t.Fatal(err)
	}
	for name, comp := range map[string]core.Component{
		"src": src, "cls": cls, "ee": ee, "snk": snk,
	} {
		if err := fw.Admit(name, comp); err != nil {
			t.Fatalf("admit %s: %v", name, err)
		}
	}
	for _, b := range [][3]string{
		{"src", "out", "cls"}, {"cls", "media", "ee"},
		{"cls", "default", "snk"}, {"ee", "out", "snk"},
	} {
		if _, err := router.ConnectPush(capsule, b[0], b[1], b[2]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cls.RegisterFilter("udp and dst port 5004", 1, "media"); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := capsule.StopAll(ctx); err != nil {
			t.Errorf("stop: %v", err)
		}
	}()

	// Stratum 4: a signalling agent on a 3-node substrate reserves
	// bandwidth for the media session before traffic flows.
	w := netsim.NewNetwork()
	defer w.Stop()
	names, err := netsim.Line(w, "n", 3, netsim.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*coord.Agent, 3)
	for i, name := range names {
		node, err := w.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		caps := map[string]int64{}
		for _, nb := range node.Neighbors() {
			caps[nb] = 1_000_000
		}
		agents[i] = coord.NewAgent(node, coord.AgentConfig{Capacity: caps})
	}
	if err := agents[0].Reserve("media-session", names, 500_000, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// Drive traffic: half media (5004), half other.
	gen, err := trace.NewGenerator(trace.Config{Seed: 77, Flows: 8, UDPShare: 100})
	if err != nil {
		t.Fatal(err)
	}
	const nMedia, nOther = 200, 200
	for i := 0; i < nMedia; i++ {
		raw, err := gen.NextFixed(200)
		if err != nil {
			t.Fatal(err)
		}
		// Rewrite destination port to 5004 (media).
		raw[22], raw[23] = 0x13, 0x8c
		if err := inNIC.Inject(raw); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nOther; i++ {
		raw, err := gen.NextFixed(200)
		if err != nil {
			t.Fatal(err)
		}
		raw[22], raw[23] = 0x00, 0x50 // port 80
		if err := inNIC.Inject(raw); err != nil {
			t.Fatal(err)
		}
	}

	// Expect: all "other" packets forwarded; media thinned to half.
	want := uint64(nOther + nMedia/2)
	deadline := time.After(5 * time.Second)
	for outNIC.Stats().TxFrames < want {
		select {
		case <-deadline:
			t.Fatalf("forwarded %d, want %d", outNIC.Stats().TxFrames, want)
		case <-time.After(time.Millisecond):
		}
	}
	// Settle, then check the EE thinned correctly (no over-delivery).
	time.Sleep(50 * time.Millisecond)
	if got := outNIC.Stats().TxFrames; got != want {
		t.Fatalf("forwarded %d, want exactly %d", got, want)
	}
	eeStats, err := ee.StatsOf("media-filter")
	if err != nil {
		t.Fatal(err)
	}
	if eeStats.Hits != nMedia || eeStats.Drops != nMedia/2 {
		t.Fatalf("ee stats = %+v", eeStats)
	}
	// The stratum-4 reservation is held hop by hop.
	if agents[0].Reserved(names[1]) != 500_000 {
		t.Fatal("reservation not held")
	}
}

// TestReconfigureUnderLoadEndToEnd hot-swaps the classifier's downstream
// EE while NIC-driven traffic flows, asserting zero loss attributable to
// the swap.
func TestReconfigureUnderLoadEndToEnd(t *testing.T) {
	capsule := core.NewCapsule("swap-node")
	head := router.NewCounter()
	mid := appsvc.NewExecEnv()
	tail := router.NewCounter()
	sink := router.NewDropper()
	for name, comp := range map[string]core.Component{
		"head": head, "mid": mid, "tail": tail, "sink": sink,
	} {
		if err := capsule.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range [][3]string{
		{"head", "out", "mid"}, {"mid", "out", "tail"}, {"tail", "out", "sink"},
	} {
		if _, err := router.ConnectPush(capsule, b[0], b[1], b[2]); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := trace.NewGenerator(trace.Config{Seed: 5, Flows: 4, UDPShare: 100})
	if err != nil {
		t.Fatal(err)
	}
	raws := make([][]byte, 20000)
	for i := range raws {
		raws[i], err = gen.NextFixed(64)
		if err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan int)
	go func() {
		sent := 0
		for _, raw := range raws {
			if head.PushBatch([]*router.Packet{router.NewPacket(raw)}) == nil {
				sent++
			}
		}
		done <- sent
	}()
	replacement := appsvc.NewExecEnv()
	if err := router.HotSwap(capsule, "mid", "mid2", replacement); err != nil {
		t.Fatal(err)
	}
	sent := <-done
	if got := tail.ElemStats().In; got != uint64(sent) {
		t.Fatalf("lost %d packets across swap", uint64(sent)-got)
	}
	if err := capsule.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
}
