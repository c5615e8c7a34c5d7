package control

import (
	"errors"
	"net"
	"net/netip"
	"testing"

	"netkit/cf"
	"netkit/core"
	"netkit/packet"
	"netkit/router"
)

func fixture(t *testing.T) (*Client, *core.Capsule) {
	t.Helper()
	capsule := core.NewCapsule("ctl-test")
	fw, err := router.NewFramework(capsule, false)
	if err != nil {
		t.Fatal(err)
	}
	cnt := router.NewCounter()
	if err := fw.Admit("cnt", cnt); err != nil {
		t.Fatal(err)
	}
	cls, err := router.NewClassifier("a", "default")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("cls", cls); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "cnt", "out", "cls"); err != nil {
		t.Fatal(err)
	}
	return serveFramework(t, fw), capsule
}

// serveFramework serves fw on a loopback port and returns a client of it.
func serveFramework(t *testing.T, fw *cf.Framework) *Client {
	t.Helper()
	srv := NewServer(fw)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	client, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = srv.Close()
	})
	return client
}

func TestPing(t *testing.T) {
	client, _ := fixture(t)
	var pong string
	if err := client.Do(&Request{Op: "ping"}, &pong); err != nil {
		t.Fatal(err)
	}
	if pong != "pong" {
		t.Fatalf("pong = %q", pong)
	}
}

func TestGraphAndMembers(t *testing.T) {
	client, _ := fixture(t)
	var g core.Graph
	if err := client.Do(&Request{Op: "graph"}, &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 2 || len(g.Edges) != 1 {
		t.Fatalf("graph = %d nodes %d edges", len(g.Nodes), len(g.Edges))
	}
	var members []string
	if err := client.Do(&Request{Op: "members"}, &members); err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("members = %v", members)
	}
	var types []string
	if err := client.Do(&Request{Op: "types"}, &types); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 {
		t.Fatal("no registered types")
	}
}

func TestStats(t *testing.T) {
	client, capsule := fixture(t)
	cnt, _ := capsule.Component("cnt")
	push := cnt.(router.IPacketPush)
	b, err := packet.BuildUDP4(netip.MustParseAddr("10.0.0.1"),
		netip.MustParseAddr("10.0.0.2"), 1, 2, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := push.PushBatch([]*router.Packet{router.NewPacket(b)}); err != nil {
		t.Fatal(err)
	}
	var sd StatsData
	if err := client.Do(&Request{Op: "stats", Name: "cnt"}, &sd); err != nil {
		t.Fatal(err)
	}
	if in, ok := sd.Tree.Stat("packets_in"); !ok || in.Value != 1 {
		t.Fatalf("stats = %+v", sd)
	}
	// The capsule-wide form returns one child per component.
	var full StatsData
	if err := client.Do(&Request{Op: "stats"}, &full); err != nil {
		t.Fatal(err)
	}
	if n, ok := full.Tree.Find("cnt"); !ok {
		t.Fatalf("no cnt node in full tree: %+v", full.Tree)
	} else if in, ok := n.Stat("packets_in"); !ok || in.Value != 1 {
		t.Fatalf("cnt node = %+v", n)
	}
	if err := client.Do(&Request{Op: "stats", Name: "ghost"}, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
	// Watch returns a sampled series of the same tree.
	var samples []WatchSample
	if err := client.Do(&Request{Op: "watch", Name: "cnt", Samples: 3, IntervalMS: 1}, &samples); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("watch returned %d samples, want 3", len(samples))
	}
	if in, ok := samples[2].Tree.Stat("packets_in"); !ok || in.Value != 1 {
		t.Fatalf("watch sample = %+v", samples[2])
	}
	if err := client.Do(&Request{Op: "watch", Samples: 500}, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("unbounded watch accepted: %v", err)
	}
}

func TestFilterInstallRemove(t *testing.T) {
	client, _ := fixture(t)
	var id uint64
	err := client.Do(&Request{
		Op: "filter", Classifier: "cls",
		Spec: "udp and dst port 53", Output: "a", Priority: 5,
	}, &id)
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("zero filter id")
	}
	if err := client.Do(&Request{Op: "unfilter", Classifier: "cls", FilterID: id}, nil); err != nil {
		t.Fatal(err)
	}
	// Installing to a non-classifier fails.
	err = client.Do(&Request{Op: "filter", Classifier: "cnt", Spec: "udp", Output: "a"}, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
}

func TestSwapViaControl(t *testing.T) {
	client, capsule := fixture(t)
	err := client.Do(&Request{
		Op: "swap", Name: "cnt", New: "cnt2", Type: router.TypeCounter,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := capsule.Component("cnt"); ok {
		t.Fatal("old component still present")
	}
	if _, ok := capsule.Component("cnt2"); !ok {
		t.Fatal("replacement missing")
	}
	if err := capsule.Snapshot().Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing fields are rejected.
	err = client.Do(&Request{Op: "swap", Name: "cnt2"}, nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
}

func TestUnknownOp(t *testing.T) {
	client, _ := fixture(t)
	if err := client.Do(&Request{Op: "nonsense"}, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("want ErrRemote, got %v", err)
	}
}
