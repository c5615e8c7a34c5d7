package appsvc

import (
	"errors"
	"net/netip"
	"sync"
	"testing"

	"netkit/core"
	"netkit/packet"
	"netkit/router"
)

var (
	srcA = netip.MustParseAddr("10.0.0.1")
	dstA = netip.MustParseAddr("192.168.1.1")
)

func mediaPkt(t *testing.T, dstPort uint16, payload []byte) *router.Packet {
	t.Helper()
	b, err := packet.BuildUDP4(srcA, dstA, 4000, dstPort, 64, payload)
	if err != nil {
		t.Fatal(err)
	}
	return router.NewPacket(b)
}

type collectorSink struct {
	*core.Base
	mu      sync.Mutex
	pkts    []*router.Packet
	batches int
}

func newCollector() *collectorSink {
	s := &collectorSink{Base: core.NewBase("test.Sink")}
	s.Provide(router.IPacketPushID, s)
	return s
}

func (s *collectorSink) PushBatch(batch []*router.Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkts = append(s.pkts, batch...)
	s.batches++
	return nil
}

// push1 pushes one packet as a one-element batch.
func push1(dst router.IPacketPush, p *router.Packet) error {
	return dst.PushBatch([]*router.Packet{p})
}

func (s *collectorSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pkts)
}

func eeFixture(t *testing.T) (*ExecEnv, *collectorSink) {
	t.Helper()
	c := core.NewCapsule("ee-test")
	ee := NewExecEnv()
	out := newCollector()
	if err := c.Insert("ee", ee); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("out", out); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Bind("ee", "out", "out", router.IPacketPushID); err != nil {
		t.Fatal(err)
	}
	return ee, out
}

func TestEEPassThroughNoPrograms(t *testing.T) {
	ee, out := eeFixture(t)
	if err := push1(ee, mediaPkt(t, 5004, []byte("frame"))); err != nil {
		t.Fatal(err)
	}
	if out.count() != 1 {
		t.Fatal("pass-through failed")
	}
}

func TestEEMediaFilterThinsFlow(t *testing.T) {
	ee, out := eeFixture(t)
	mf := &MediaFilter{KeepOneIn: 3}
	if err := ee.Attach("udp and dst port 5004", mf, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := push1(ee, mediaPkt(t, 5004, []byte("frame"))); err != nil {
			t.Fatal(err)
		}
	}
	if out.count() != 10 {
		t.Fatalf("kept %d of 30, want 10", out.count())
	}
	// Unmatched traffic is untouched.
	for i := 0; i < 5; i++ {
		if err := push1(ee, mediaPkt(t, 9999, []byte("other"))); err != nil {
			t.Fatal(err)
		}
	}
	if out.count() != 15 {
		t.Fatalf("unmatched traffic filtered: %d", out.count())
	}
	st, err := ee.StatsOf("media-filter")
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 30 || st.Drops != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestEEBatchForwardsSurvivorsInOrder: the programs run packet by packet
// and the survivors leave as one batch, in arrival order.
func TestEEBatchForwardsSurvivorsInOrder(t *testing.T) {
	ee, out := eeFixture(t)
	if err := ee.Attach("udp and dst port 5004", &MediaFilter{KeepOneIn: 2}, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	var batch, want []*router.Packet
	for i := 0; i < 6; i++ {
		media, other := mediaPkt(t, 5004, []byte("frame")), mediaPkt(t, 9999, []byte("other"))
		batch = append(batch, media, other)
		if i%2 == 0 {
			want = append(want, media)
		}
		want = append(want, other)
	}
	if err := ee.PushBatch(batch); err != nil {
		t.Fatal(err)
	}
	if out.batches != 1 || len(out.pkts) != len(want) {
		t.Fatalf("%d packets in %d batches, want %d in one", len(out.pkts), out.batches, len(want))
	}
	for i := range want {
		if out.pkts[i] != want[i] {
			t.Fatalf("packet %d out of arrival order", i)
		}
	}
	if in, fwd, dropped := ee.Stats(); in != 12 || fwd != 9 || dropped != 3 {
		t.Fatalf("stats in=%d forwarded=%d dropped=%d, want 12/9/3", in, fwd, dropped)
	}
}

func TestEEFlowMeterAccumulates(t *testing.T) {
	ee, _ := eeFixture(t)
	if err := ee.Attach("udp", FlowMeter{}, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	var total int
	for i := 0; i < 7; i++ {
		p := mediaPkt(t, 5004, []byte("x"))
		total += len(p.Data)
		if err := push1(ee, p); err != nil {
			t.Fatal(err)
		}
	}
	// Dig the flow state out through the public surface: re-run OnPacket's
	// accounting by reading state via a fresh meter on the same attachment
	// is not possible, so verify through the attachment stats instead.
	st, err := ee.StatsOf("flow-meter")
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 7 || st.Drops != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEEVMProgramDropsLowTTL(t *testing.T) {
	ee, out := eeFixture(t)
	code := MustAssemble(`
		loadf ttl
		push 10
		lt
		jnz kill
		forward
		kill: drop
	`)
	if err := ee.AttachVM("ttl-guard", "ip", code, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	ok, err := packet.BuildUDP4(srcA, dstA, 1, 2, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	low, err := packet.BuildUDP4(srcA, dstA, 1, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := push1(ee, router.NewPacket(ok)); err != nil {
		t.Fatal(err)
	}
	if err := push1(ee, router.NewPacket(low)); err != nil {
		t.Fatal(err)
	}
	if out.count() != 1 {
		t.Fatalf("forwarded = %d, want 1", out.count())
	}
}

func TestEEVMProgramMutatesPacket(t *testing.T) {
	ee, out := eeFixture(t)
	code := MustAssemble(`
		push 46
		storef tos
		forward
	`)
	if err := ee.AttachVM("dscp-mark", "udp and dst port 5004", code, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	if err := push1(ee, mediaPkt(t, 5004, []byte("av"))); err != nil {
		t.Fatal(err)
	}
	if out.count() != 1 {
		t.Fatal("packet lost")
	}
	out.mu.Lock()
	data := out.pkts[0].Data
	out.mu.Unlock()
	h, err := packet.ParseIPv4(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.TOS != 46 {
		t.Fatalf("tos = %d, want 46", h.TOS)
	}
	if err := packet.ValidateIPv4Checksum(data); err != nil {
		t.Fatalf("checksum invalid after VM mutation: %v", err)
	}
}

func TestEEFaultingProgramDropsPacket(t *testing.T) {
	ee, out := eeFixture(t)
	// Infinite loop: burns its gas, faults, packet must be dropped.
	if err := ee.AttachVM("runaway", "ip", MustAssemble("spin: jmp spin"),
		Sandbox{Gas: 50}); err != nil {
		t.Fatal(err)
	}
	if err := push1(ee, mediaPkt(t, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if out.count() != 0 {
		t.Fatal("faulting program's packet forwarded")
	}
	st, err := ee.StatsOf("runaway")
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults != 1 {
		t.Fatalf("faults = %d", st.Faults)
	}
}

func TestEESandboxRateLimitFailsOpen(t *testing.T) {
	ee, out := eeFixture(t)
	mf := &MediaFilter{KeepOneIn: 1000000} // drops ~everything it sees
	if err := ee.Attach("udp", mf, Sandbox{RatePps: 1}); err != nil {
		t.Fatal(err)
	}
	// First packet consumes the program budget (dropped by the filter);
	// the rest bypass the over-budget program and pass through.
	for i := 0; i < 10; i++ {
		if err := push1(ee, mediaPkt(t, 5004, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if out.count() < 8 {
		t.Fatalf("rate-limited program still swallowed traffic: %d forwarded", out.count())
	}
}

func TestEEStateBudgetEnforced(t *testing.T) {
	st := &FlowState{limit: 10}
	if err := st.Put("k", []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("k2", []byte("123456")); !errors.Is(err, ErrSandbox) {
		t.Fatalf("want ErrSandbox, got %v", err)
	}
	// Overwriting reclaims the old value's budget.
	if err := st.Put("k", []byte("1234567890")); err != nil {
		t.Fatal(err)
	}
	if v, ok := st.Get("k"); !ok || len(v) != 10 {
		t.Fatalf("get = %v %v", v, ok)
	}
}

func TestEEAttachValidation(t *testing.T) {
	ee, _ := eeFixture(t)
	if err := ee.Attach("not a filter ((", &MediaFilter{}, Sandbox{}); err == nil {
		t.Fatal("want filter error")
	}
	if err := ee.Attach("udp", nil, Sandbox{}); err == nil {
		t.Fatal("want nil program error")
	}
	if err := ee.AttachVM("x", "udp", nil, Sandbox{}); err == nil {
		t.Fatal("want empty code error")
	}
	if err := ee.Attach("udp", &MediaFilter{}, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	if err := ee.Attach("udp", &MediaFilter{}, Sandbox{}); !errors.Is(err, ErrProgramExists) {
		t.Fatalf("want ErrProgramExists, got %v", err)
	}
}

func TestEEDetach(t *testing.T) {
	ee, out := eeFixture(t)
	mf := &MediaFilter{KeepOneIn: 1000000}
	if err := ee.Attach("udp", mf, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	if err := push1(ee, mediaPkt(t, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if out.count() != 1 { // first packet is the kept one (count%n==1)
		t.Fatalf("first packet should pass: %d", out.count())
	}
	if err := push1(ee, mediaPkt(t, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if out.count() != 1 {
		t.Fatal("second packet should drop")
	}
	if err := ee.Detach("media-filter"); err != nil {
		t.Fatal(err)
	}
	if err := ee.Detach("media-filter"); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("want ErrNoProgram, got %v", err)
	}
	if err := push1(ee, mediaPkt(t, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if out.count() != 2 {
		t.Fatal("detached program still filtering")
	}
	if got := ee.Programs(); len(got) != 0 {
		t.Fatalf("programs = %v", got)
	}
	if _, err := ee.StatsOf("media-filter"); !errors.Is(err, ErrNoProgram) {
		t.Fatalf("want ErrNoProgram, got %v", err)
	}
}

func TestEETTLFloorProgram(t *testing.T) {
	ee, out := eeFixture(t)
	if err := ee.Attach("ip", TTLFloor{Min: 10}, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	high, err := packet.BuildUDP4(srcA, dstA, 1, 2, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	low, err := packet.BuildUDP4(srcA, dstA, 1, 2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := push1(ee, router.NewPacket(high)); err != nil {
		t.Fatal(err)
	}
	if err := push1(ee, router.NewPacket(low)); err != nil {
		t.Fatal(err)
	}
	if out.count() != 1 {
		t.Fatalf("forwarded = %d", out.count())
	}
}

func TestEEChainedPrograms(t *testing.T) {
	ee, out := eeFixture(t)
	// Two programs on the same flow: both must run, in attach order.
	if err := ee.Attach("udp", TTLFloor{Min: 5}, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	if err := ee.Attach("udp", FlowMeter{}, Sandbox{}); err != nil {
		t.Fatal(err)
	}
	if err := push1(ee, mediaPkt(t, 1, nil)); err != nil {
		t.Fatal(err)
	}
	if out.count() != 1 {
		t.Fatal("chained programs broke forwarding")
	}
	stMeter, err := ee.StatsOf("flow-meter")
	if err != nil {
		t.Fatal(err)
	}
	if stMeter.Hits != 1 {
		t.Fatal("second program did not run")
	}
}

func TestEEFactoryRegistered(t *testing.T) {
	comp, err := core.Components.New(TypeExecEnv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if comp.TypeName() != TypeExecEnv {
		t.Fatalf("type = %q", comp.TypeName())
	}
}
