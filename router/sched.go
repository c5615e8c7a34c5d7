package router

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netkit/core"
)

// SchedPolicy selects the link-scheduling discipline.
type SchedPolicy string

// Supported policies.
const (
	PolicyDRR    SchedPolicy = "drr"  // byte-based deficit round robin
	PolicyRR     SchedPolicy = "rr"   // packet round robin
	PolicyStrict SchedPolicy = "prio" // strict priority
)

// schedInput is one upstream queue the scheduler serves.
type schedInput struct {
	name    string
	recp    *core.Receptacle[IPacketPull]
	quantum int // bytes per DRR round
	prio    int // strict-priority rank (higher first)
	deficit int // DRR running deficit (may go negative: debt carrying)
	// belled is the source last offered the doorbell, so an idle pump
	// re-registers only with sources it has not seen.
	belled IPacketPull
}

// doorbell is implemented by pull sources that can wake a sleeping puller:
// the standard queues ring the registered channel when they turn
// non-empty, and ring at once if they already hold packets.
type doorbell interface {
	setBell(bell chan struct{})
}

// LinkScheduler is the active element at the egress of Figure 3: it pulls
// from its input queues according to the configured discipline and pushes
// to its output (typically a NIC sink). It runs either as a pump (Start/
// Stop) or synchronously via RunOnce for deterministic tests and benches.
// Every discipline drains an input through one pull adapter (pullBatch):
// one PullBatch — one queue lock — per input visit, and each service round
// leaves as one PushBatch, so the egress binding is crossed once per
// round, not once per packet.
//
// An idle pump sleeps on a doorbell its input queues ring when they turn
// non-empty, so queueing delay is not set by a timer. A timer at the
// fallback interval still bounds the sleep, for sources that cannot ring
// (per-packet-only plug-ins, intercepted pull bindings).
type LinkScheduler struct {
	*core.Base
	elementCounters
	out    *core.Receptacle[IPacketPush]
	policy SchedPolicy

	mu      sync.Mutex
	inputs  []*schedInput
	next    int
	scratch []*Packet // the round's departure batch, reused across RunOnce calls

	pumpMu   sync.Mutex
	quit     chan struct{}
	done     chan struct{}
	bell     chan struct{} // capacity 1, rung by the inputs
	fallback time.Duration // longest idle sleep

	doorbellWakes atomic.Uint64
	timerWakes    atomic.Uint64
}

// NewLinkScheduler creates a scheduler with the given policy.
func NewLinkScheduler(policy SchedPolicy) (*LinkScheduler, error) {
	switch policy {
	case PolicyDRR, PolicyRR, PolicyStrict:
	default:
		return nil, fmt.Errorf("router: unknown scheduling policy %q", policy)
	}
	s := &LinkScheduler{
		Base:     core.NewBase(TypeLinkSched),
		policy:   policy,
		bell:     make(chan struct{}, 1),
		fallback: 50 * time.Microsecond,
	}
	s.out = core.NewReceptacle[IPacketPush](IPacketPushID)
	s.AddReceptacle("out", s.out)
	return s, nil
}

// Policy returns the active discipline.
func (s *LinkScheduler) Policy() SchedPolicy { return s.policy }

// AddInput creates a named pull input with DRR quantum (bytes) and strict
// priority rank. The returned receptacle name can be bound to any
// IPacketPull provider.
func (s *LinkScheduler) AddInput(name string, quantum, prio int) error {
	if name == "" {
		return fmt.Errorf("router: empty input name")
	}
	if quantum <= 0 {
		quantum = 1500
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, in := range s.inputs {
		if in.name == name {
			return fmt.Errorf("router: input %q: %w", name, core.ErrAlreadyExists)
		}
	}
	in := &schedInput{
		name:    name,
		recp:    core.NewReceptacle[IPacketPull](IPacketPullID),
		quantum: quantum,
		prio:    prio,
	}
	s.inputs = append(s.inputs, in)
	s.AddReceptacle(name, in.recp)
	return nil
}

// RemoveInput removes an unbound input.
func (s *LinkScheduler) RemoveInput(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, in := range s.inputs {
		if in.name != name {
			continue
		}
		if in.recp.Bound() {
			return fmt.Errorf("router: input %q: %w", name, core.ErrAlreadyBound)
		}
		if err := s.RemoveReceptacle(name); err != nil {
			return err
		}
		s.inputs = append(s.inputs[:i], s.inputs[i+1:]...)
		if s.next >= len(s.inputs) {
			s.next = 0
		}
		return nil
	}
	return fmt.Errorf("router: input %q: %w", name, core.ErrNotFound)
}

// Inputs returns the input names in service order.
func (s *LinkScheduler) Inputs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.inputs))
	for i, in := range s.inputs {
		out[i] = in.name
	}
	return out
}

// RunOnce serves up to maxPkts packets per the discipline, pushes them
// downstream in emission order as one batch, and returns how many it
// served.
func (s *LinkScheduler) RunOnce(maxPkts int) int {
	if maxPkts <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scratch = s.scratch[:0]
	var served int
	switch s.policy {
	case PolicyStrict:
		served = s.runStrict(maxPkts)
	case PolicyRR:
		served = s.runRR(maxPkts)
	default:
		served = s.runDRR(maxPkts)
	}
	s.in.Add(uint64(served))
	_ = s.forwardBatch(s.out, s.scratch)
	for i := range s.scratch {
		s.scratch[i] = nil // no stale packet refs pinned by the scratch
	}
	return served
}

// pull is the disciplines' one way to take packets: up to max from in
// while credit bytes remain, appended to the round's scratch through
// pullBatch. It returns how many it took and the credit left; an unbound
// input yields nothing.
func (s *LinkScheduler) pull(in *schedInput, max, credit int) (int, int) {
	src, ok := in.recp.Get()
	if !ok {
		return 0, credit
	}
	n := len(s.scratch)
	s.scratch, credit = pullBatch(src, s.scratch, max, credit)
	return len(s.scratch) - n, credit
}

func (s *LinkScheduler) runStrict(budget int) int {
	order := make([]*schedInput, len(s.inputs))
	copy(order, s.inputs)
	sort.SliceStable(order, func(i, j int) bool { return order[i].prio > order[j].prio })
	served := 0
	for _, in := range order {
		if served == budget {
			break
		}
		n, _ := s.pull(in, budget-served, math.MaxInt)
		served += n
	}
	return served
}

func (s *LinkScheduler) runRR(budget int) int {
	if len(s.inputs) == 0 {
		return 0
	}
	served := 0
	idleRounds := 0
	for served < budget && idleRounds < len(s.inputs) {
		in := s.inputs[s.next]
		s.next = (s.next + 1) % len(s.inputs)
		if n, _ := s.pull(in, 1, math.MaxInt); n == 0 {
			idleRounds++
			continue
		}
		idleRounds = 0
		served++
	}
	return served
}

func (s *LinkScheduler) runDRR(budget int) int {
	if len(s.inputs) == 0 {
		return 0
	}
	served := 0
	idleRounds := 0
	for served < budget && idleRounds < len(s.inputs) {
		in := s.inputs[s.next]
		s.next = (s.next + 1) % len(s.inputs)
		in.deficit += in.quantum
		if in.deficit <= 0 {
			// Debt carrying: a queue that overdrew (packet larger than its
			// quantum) accumulates credit across rounds. It is not idle —
			// its deficit grows every visit — so the round goes on until
			// it is served, rather than ending with its packets waiting.
			idleRounds = 0
			continue
		}
		n, left := s.pull(in, budget-served, in.deficit)
		served += n
		in.deficit = left
		if left > 0 && served < budget {
			in.deficit = 0 // credit and budget left: the queue ran dry (classic DRR reset)
		}
		if n > 0 {
			idleRounds = 0
		} else {
			idleRounds++
		}
	}
	return served
}

// Start implements core.Starter: launches the service pump.
func (s *LinkScheduler) Start(context.Context) error {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	if s.quit != nil {
		return nil
	}
	s.quit = make(chan struct{})
	s.done = make(chan struct{})
	go s.pump(s.quit, s.done, s.fallback)
	return nil
}

// pump serves rounds until quit closes. When a round finds nothing it
// offers the doorbell to every input and sleeps until one rings or the
// fallback timer fires; the timer is reused, so idling allocates nothing.
func (s *LinkScheduler) pump(quit, done chan struct{}, fallback time.Duration) {
	defer close(done)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		select {
		case <-quit:
			return
		default:
		}
		if s.RunOnce(64) > 0 {
			continue
		}
		s.armBells()
		timer.Reset(fallback)
		select {
		case <-quit:
			return
		case <-s.bell:
			s.doorbellWakes.Add(1)
			if !timer.Stop() {
				select { // a timer that fired before Stop may have left a tick
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
			s.timerWakes.Add(1)
		}
	}
}

// armBells registers the doorbell with every bound input source not yet
// offered it. A source that already holds packets rings at once, so the
// sleep that follows cannot miss them.
func (s *LinkScheduler) armBells() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, in := range s.inputs {
		src, ok := in.recp.Get()
		if !ok || src == in.belled {
			continue
		}
		if d, ok := src.(doorbell); ok {
			d.setBell(s.bell)
		}
		in.belled = src
	}
}

// Stop implements core.Stopper: terminates and joins the pump.
func (s *LinkScheduler) Stop(context.Context) error {
	s.pumpMu.Lock()
	defer s.pumpMu.Unlock()
	if s.quit == nil {
		return nil
	}
	close(s.quit)
	<-s.done
	s.quit, s.done = nil, nil
	return nil
}

// Stats implements core.IStats, adding the input-set size and how the
// pump's idle sleeps ended: rung by an input queue, or timed out.
func (s *LinkScheduler) Stats() []core.Stat {
	s.mu.Lock()
	inputs := len(s.inputs)
	s.mu.Unlock()
	return append(s.statList(),
		core.G("sched_inputs", "inputs", float64(inputs)),
		core.C("sched_doorbell_wakes", "wakes", s.doorbellWakes.Load()),
		core.C("sched_timer_wakes", "wakes", s.timerWakes.Load()))
}

var (
	_ core.Starter = (*LinkScheduler)(nil)
	_ core.Stopper = (*LinkScheduler)(nil)
)

func init() {
	core.Components.MustRegister(TypeLinkSched, func(cfg map[string]string) (core.Component, error) {
		policy := PolicyDRR
		if s, ok := cfg["policy"]; ok {
			policy = SchedPolicy(s)
		}
		ls, err := NewLinkScheduler(policy)
		if err != nil {
			return nil, err
		}
		n := 1
		if s, ok := cfg["inputs"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("router: scheduler inputs: %w", err)
			}
			n = v
		}
		for i := 0; i < n; i++ {
			if err := ls.AddInput("in"+strconv.Itoa(i), 1500, n-i); err != nil {
				return nil, err
			}
		}
		return ls, nil
	})
}
