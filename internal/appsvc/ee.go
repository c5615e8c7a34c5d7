package appsvc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"netkit/core"
	"netkit/internal/filter"
	"netkit/packet"
	"netkit/resources"
	"netkit/router"
)

// EE errors.
var (
	// ErrSandbox indicates a program exceeded its sandbox budget.
	ErrSandbox = errors.New("appsvc: sandbox limit")
	// ErrProgramExists indicates a duplicate program name.
	ErrProgramExists = errors.New("appsvc: program exists")
	// ErrNoProgram indicates an unknown program.
	ErrNoProgram = errors.New("appsvc: no such program")
)

// TypeExecEnv is the EE's component type name.
const TypeExecEnv = "netkit.appsvc.ExecEnv"

// Program is a native per-flow application-service program.
type Program interface {
	// Name identifies the program.
	Name() string
	// OnPacket processes one packet of an attached flow; it may mutate the
	// payload in place and must return the verdict.
	OnPacket(state *FlowState, pkt *router.Packet) (Verdict, error)
}

// FlowState is per-(program, flow) storage, bounded by the sandbox.
type FlowState struct {
	limit int
	mu    sync.Mutex
	kv    map[string][]byte
	used  int
}

// Put stores a value, enforcing the memory budget.
func (s *FlowState) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.used - len(s.kv[key]) + len(val)
	if s.limit > 0 && next > s.limit {
		return fmt.Errorf("appsvc: state %d > %d bytes: %w", next, s.limit, ErrSandbox)
	}
	if s.kv == nil {
		s.kv = make(map[string][]byte)
	}
	s.kv[key] = append([]byte(nil), val...)
	s.used = next
	return nil
}

// Get retrieves a value.
func (s *FlowState) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.kv[key]
	return v, ok
}

// Sandbox bounds one attached program.
type Sandbox struct {
	// MaxStateBytes bounds per-flow storage (0 = 4096).
	MaxStateBytes int
	// RatePps bounds packets/sec through the program (0 = unlimited).
	RatePps float64
	// Gas bounds VM programs per packet (0 = 4096). Ignored for native
	// programs.
	Gas int
}

// attachment is one program bound to a flow selector.
type attachment struct {
	name    string
	match   *filter.Program
	prog    Program
	vm      Code // nil unless VM-backed
	sandbox Sandbox
	bucket  *resources.TokenBucket

	mu     sync.Mutex
	flows  map[packet.FlowKey]*FlowState
	hits   atomic.Uint64
	drops  atomic.Uint64
	faults atomic.Uint64
}

func (a *attachment) state(k packet.FlowKey) *FlowState {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.flows[k]
	if !ok {
		st = &FlowState{limit: a.sandbox.MaxStateBytes}
		a.flows[k] = st
	}
	return st
}

// AttachStats reports one attachment's counters.
type AttachStats struct {
	Name   string
	Hits   uint64
	Drops  uint64
	Faults uint64
}

// ExecEnv is the stratum-3 execution environment, packaged as a Router CF
// component: packets pushed in are matched against program attachments;
// matching programs run under their sandboxes; surviving packets continue
// out the "out" receptacle.
type ExecEnv struct {
	*core.Base
	out *core.Receptacle[router.IPacketPush]

	mu      sync.RWMutex
	attach  []*attachment
	in      atomic.Uint64
	forward atomic.Uint64
	dropped atomic.Uint64
}

// NewExecEnv returns an empty EE.
func NewExecEnv() *ExecEnv {
	ee := &ExecEnv{Base: core.NewBase(TypeExecEnv)}
	ee.out = core.NewReceptacle[router.IPacketPush](router.IPacketPushID)
	ee.AddReceptacle("out", ee.out)
	ee.Provide(router.IPacketPushID, ee)
	return ee
}

// Attach binds a native program to the flows selected by spec.
func (ee *ExecEnv) Attach(spec string, prog Program, sb Sandbox) error {
	if prog == nil {
		return fmt.Errorf("appsvc: nil program")
	}
	return ee.attachAny(prog.Name(), spec, prog, nil, sb)
}

// AttachVM binds a capsule-VM program to the flows selected by spec.
func (ee *ExecEnv) AttachVM(name, spec string, code Code, sb Sandbox) error {
	if len(code) == 0 {
		return fmt.Errorf("appsvc: empty code")
	}
	return ee.attachAny(name, spec, nil, code, sb)
}

func (ee *ExecEnv) attachAny(name, spec string, prog Program, code Code, sb Sandbox) error {
	m, err := filter.Compile(spec)
	if err != nil {
		return fmt.Errorf("appsvc: attach %q: %w", name, err)
	}
	if sb.MaxStateBytes == 0 {
		sb.MaxStateBytes = 4096
	}
	if sb.Gas == 0 {
		sb.Gas = 4096
	}
	a := &attachment{
		name: name, match: m, prog: prog, vm: code, sandbox: sb,
		flows: make(map[packet.FlowKey]*FlowState),
	}
	if sb.RatePps > 0 {
		bucket, err := resources.NewTokenBucket(sb.RatePps, sb.RatePps, nil)
		if err != nil {
			return err
		}
		a.bucket = bucket
	}
	ee.mu.Lock()
	defer ee.mu.Unlock()
	for _, have := range ee.attach {
		if have.name == name {
			return fmt.Errorf("appsvc: %q: %w", name, ErrProgramExists)
		}
	}
	ee.attach = append(ee.attach, a)
	return nil
}

// Detach removes a program by name.
func (ee *ExecEnv) Detach(name string) error {
	ee.mu.Lock()
	defer ee.mu.Unlock()
	for i, a := range ee.attach {
		if a.name == name {
			ee.attach = append(ee.attach[:i], ee.attach[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("appsvc: %q: %w", name, ErrNoProgram)
}

// Programs lists attachment names in evaluation order.
func (ee *ExecEnv) Programs() []string {
	ee.mu.RLock()
	defer ee.mu.RUnlock()
	out := make([]string, len(ee.attach))
	for i, a := range ee.attach {
		out[i] = a.name
	}
	return out
}

// StatsOf reports one attachment's counters.
func (ee *ExecEnv) StatsOf(name string) (AttachStats, error) {
	ee.mu.RLock()
	defer ee.mu.RUnlock()
	for _, a := range ee.attach {
		if a.name == name {
			return AttachStats{
				Name: a.name, Hits: a.hits.Load(),
				Drops: a.drops.Load(), Faults: a.faults.Load(),
			}, nil
		}
	}
	return AttachStats{}, fmt.Errorf("appsvc: %q: %w", name, ErrNoProgram)
}

// PushBatch implements router.IPacketPush: the programs run packet by
// packet, and the survivors leave "out" in arrival order as one batch.
func (ee *ExecEnv) PushBatch(batch []*router.Packet) error {
	if len(batch) == 0 {
		return nil
	}
	ee.in.Add(uint64(len(batch)))
	ee.mu.RLock()
	attach := ee.attach
	ee.mu.RUnlock()
	kept := router.GetBatch()
	for _, p := range batch {
		if ee.admit(attach, p) {
			kept = append(kept, p)
		} else {
			ee.dropped.Add(1)
			p.Release()
		}
	}
	var err error
	switch next, ok := ee.out.Get(); {
	case len(kept) == 0:
	case ok:
		ee.forward.Add(uint64(len(kept)))
		err = next.PushBatch(kept)
	default:
		ee.dropped.Add(uint64(len(kept)))
		for _, p := range kept {
			p.Release()
		}
	}
	router.PutBatch(kept)
	return err
}

// admit runs every matching attachment against p in order and reports
// whether the packet survives them.
func (ee *ExecEnv) admit(attach []*attachment, p *router.Packet) bool {
	view := p.View()
	for _, a := range attach {
		if !a.match.Match(view) {
			continue
		}
		a.hits.Add(1)
		if a.bucket != nil && !a.bucket.Allow(1) {
			// Over the program's packet budget: the program is skipped, the
			// packet passes through untouched (fail-open for rate limits).
			continue
		}
		verdict, err := ee.run(a, p)
		if err != nil {
			// Program fault: fail-safe is drop (security over availability
			// for injected code).
			a.faults.Add(1)
			return false
		}
		if verdict == VerdictDrop {
			a.drops.Add(1)
			return false
		}
		p.InvalidateView()
		view = p.View()
	}
	return true
}

// run executes one attachment against one packet.
func (ee *ExecEnv) run(a *attachment, p *router.Packet) (Verdict, error) {
	if a.vm != nil {
		env, err := NewPacketEnv(p)
		if err != nil {
			return 0, err
		}
		res, err := Exec(a.vm, env, a.sandbox.Gas)
		if err != nil {
			return 0, err
		}
		if env.Dirty() {
			env.Commit()
		}
		return res.Verdict, nil
	}
	flow, err := packet.Flow(p.Data)
	if err != nil {
		return 0, err
	}
	return a.prog.OnPacket(a.state(flow), p)
}

// Stats reports (in, forwarded, dropped).
func (ee *ExecEnv) Stats() (in, forwarded, dropped uint64) {
	return ee.in.Load(), ee.forward.Load(), ee.dropped.Load()
}

var _ router.IPacketPush = (*ExecEnv)(nil)

func init() {
	core.Components.MustRegister(TypeExecEnv, func(map[string]string) (core.Component, error) {
		return NewExecEnv(), nil
	})
}

// ---------------------------------------------------------------------------
// PacketEnv adapter

// pktEnv adapts a router.Packet to the VM's PacketEnv. Header fields are
// parsed once; stores are applied on Commit (TTL/TOS rewrites re-checksum).
type pktEnv struct {
	pkt     *router.Packet
	isV4    bool
	hdrLen  int
	ttl     int64
	tos     int64
	view    filter.View
	dirty   bool
	payload []byte // aliases pkt.Data[hdrLen:]
}

// NewPacketEnv builds the VM environment for a packet.
func NewPacketEnv(p *router.Packet) (*pktEnv, error) {
	e := &pktEnv{pkt: p, view: filter.Extract(p.Data)}
	switch e.view.Version {
	case 4:
		h, err := packet.ParseIPv4(p.Data)
		if err != nil {
			return nil, err
		}
		e.isV4 = true
		e.hdrLen = h.IHL
	case 6:
		e.hdrLen = packet.IPv6HeaderLen
	default:
		return nil, fmt.Errorf("appsvc: unparseable packet: %w", packet.ErrVersion)
	}
	e.ttl = int64(e.view.TTL)
	e.tos = int64(e.view.TOS)
	e.payload = p.Data[e.hdrLen:]
	return e, nil
}

// LoadField implements PacketEnv.
func (e *pktEnv) LoadField(f Field) (int64, bool) {
	switch f {
	case FieldVersion:
		return int64(e.view.Version), true
	case FieldTTL:
		return e.ttl, true
	case FieldProto:
		return int64(e.view.Proto), true
	case FieldSrcPort:
		return int64(e.view.SrcPort), true
	case FieldDstPort:
		return int64(e.view.DstPort), true
	case FieldTOS:
		return e.tos, true
	case FieldLen:
		return int64(len(e.pkt.Data)), true
	default:
		return 0, false
	}
}

// StoreField implements PacketEnv (TTL and TOS are writable).
func (e *pktEnv) StoreField(f Field, v int64) bool {
	if v < 0 || v > 255 {
		return false
	}
	switch f {
	case FieldTTL:
		e.ttl = v
		e.dirty = true
		return true
	case FieldTOS:
		e.tos = v
		e.dirty = true
		return true
	default:
		return false
	}
}

// PayloadLen implements PacketEnv.
func (e *pktEnv) PayloadLen() int { return len(e.payload) }

// LoadByte implements PacketEnv.
func (e *pktEnv) LoadByte(i int) (byte, bool) {
	if i < 0 || i >= len(e.payload) {
		return 0, false
	}
	return e.payload[i], true
}

// StoreByte implements PacketEnv.
func (e *pktEnv) StoreByte(i int, b byte) bool {
	if i < 0 || i >= len(e.payload) {
		return false
	}
	e.payload[i] = b
	e.dirty = true
	return true
}

// Dirty reports whether Commit has work to do.
func (e *pktEnv) Dirty() bool { return e.dirty }

// Commit applies header field writes back to the wire form, refreshing the
// IPv4 checksum.
func (e *pktEnv) Commit() {
	d := e.pkt.Data
	if e.isV4 {
		d[1] = byte(e.tos)
		d[8] = byte(e.ttl)
		d[10], d[11] = 0, 0
		cs := packet.Checksum(d[:e.hdrLen])
		binary.BigEndian.PutUint16(d[10:12], cs)
	} else {
		d[0] = 0x60 | byte(e.tos)>>4
		d[1] = byte(e.tos)<<4 | d[1]&0x0f
		d[7] = byte(e.ttl)
	}
	e.pkt.InvalidateView()
}

// ---------------------------------------------------------------------------
// Built-in native programs

// MediaFilter is the paper's canonical stratum-3 example ("per-flow media
// filters"): it passes only every Nth packet of the flow, thinning a media
// stream to a fraction of its rate.
type MediaFilter struct {
	// KeepOneIn passes 1 packet in every KeepOneIn (>= 1).
	KeepOneIn uint64
	count     atomic.Uint64
}

// Name implements Program.
func (m *MediaFilter) Name() string { return "media-filter" }

// OnPacket implements Program.
func (m *MediaFilter) OnPacket(_ *FlowState, _ *router.Packet) (Verdict, error) {
	n := m.KeepOneIn
	if n <= 1 {
		return VerdictForward, nil
	}
	if m.count.Add(1)%n == 1 {
		return VerdictForward, nil
	}
	return VerdictDrop, nil
}

// FlowMeter counts per-flow packets and bytes into flow state — an
// application-specific monitor exercising the per-flow store.
type FlowMeter struct{}

// Name implements Program.
func (FlowMeter) Name() string { return "flow-meter" }

// OnPacket implements Program.
func (FlowMeter) OnPacket(st *FlowState, p *router.Packet) (Verdict, error) {
	var pkts, bytes uint64
	if raw, ok := st.Get("pkts"); ok && len(raw) == 16 {
		pkts = binary.BigEndian.Uint64(raw[:8])
		bytes = binary.BigEndian.Uint64(raw[8:])
	}
	pkts++
	bytes += uint64(len(p.Data))
	var raw [16]byte
	binary.BigEndian.PutUint64(raw[:8], pkts)
	binary.BigEndian.PutUint64(raw[8:], bytes)
	if err := st.Put("pkts", raw[:]); err != nil {
		return 0, err
	}
	return VerdictForward, nil
}

// ReadMeter extracts the FlowMeter counters from a flow state.
func ReadMeter(st *FlowState) (pkts, bytes uint64) {
	if raw, ok := st.Get("pkts"); ok && len(raw) == 16 {
		return binary.BigEndian.Uint64(raw[:8]), binary.BigEndian.Uint64(raw[8:])
	}
	return 0, 0
}

// TTLFloor drops packets whose TTL has fallen below a floor — a trivial
// security-ish program used in tests and examples.
type TTLFloor struct {
	Min uint8
}

// Name implements Program.
func (t TTLFloor) Name() string { return "ttl-floor" }

// OnPacket implements Program.
func (t TTLFloor) OnPacket(_ *FlowState, p *router.Packet) (Verdict, error) {
	v := p.View()
	if v.TTL < t.Min {
		return VerdictDrop, nil
	}
	return VerdictForward, nil
}

// ---------------------------------------------------------------------------
// Rate helpers

// PacketsPerSecond converts a count over a window into pps for reporting.
func PacketsPerSecond(count uint64, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(count) / window.Seconds()
}
