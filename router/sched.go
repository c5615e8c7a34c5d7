package router

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
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
}

// LinkScheduler is the active element at the egress of Figure 3: it pulls
// from its input queues according to the configured discipline and pushes
// to its output (typically a NIC sink). It runs either as a pump (Start/
// Stop) or synchronously via RunOnce for deterministic tests and benches.
// Each service round leaves as one PushBatch, so the egress binding is
// crossed once per round, not once per packet.
type LinkScheduler struct {
	*core.Base
	elementCounters
	out    *core.Receptacle[IPacketPush]
	policy SchedPolicy

	mu      sync.Mutex
	inputs  []*schedInput
	next    int
	scratch []*Packet // the round's departure batch, reused across RunOnce calls

	pumpMu sync.Mutex
	quit   chan struct{}
	done   chan struct{}
	idle   time.Duration
}

// NewLinkScheduler creates a scheduler with the given policy.
func NewLinkScheduler(policy SchedPolicy) (*LinkScheduler, error) {
	switch policy {
	case PolicyDRR, PolicyRR, PolicyStrict:
	default:
		return nil, fmt.Errorf("router: unknown scheduling policy %q", policy)
	}
	s := &LinkScheduler{
		Base:   core.NewBase(TypeLinkSched),
		policy: policy,
		idle:   50 * time.Microsecond,
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

// pullFrom fetches the next packet from an input, nil when empty/unbound.
func pullFrom(in *schedInput) *Packet {
	src, ok := in.recp.Get()
	if !ok {
		return nil
	}
	p, err := src.Pull()
	if err != nil {
		return nil
	}
	return p
}

func (s *LinkScheduler) runStrict(budget int) int {
	order := make([]*schedInput, len(s.inputs))
	copy(order, s.inputs)
	sort.SliceStable(order, func(i, j int) bool { return order[i].prio > order[j].prio })
	served := 0
	for _, in := range order {
		for served < budget {
			p := pullFrom(in)
			if p == nil {
				break
			}
			s.scratch = append(s.scratch, p)
			served++
		}
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
		p := pullFrom(in)
		if p == nil {
			idleRounds++
			continue
		}
		idleRounds = 0
		s.scratch = append(s.scratch, p)
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
			// progress is guaranteed because the deficit grows every visit.
			continue
		}
		any := false
		for served < budget && in.deficit > 0 {
			p := pullFrom(in)
			if p == nil {
				in.deficit = 0 // classic DRR: reset when queue empties
				break
			}
			any = true
			in.deficit -= len(p.Data)
			s.scratch = append(s.scratch, p)
			served++
		}
		if any {
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
	go func(quit, done chan struct{}) {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if s.RunOnce(64) == 0 {
				select {
				case <-quit:
					return
				case <-time.After(s.idle):
				}
			}
		}
	}(s.quit, s.done)
	return nil
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

// Stats implements core.IStats, adding the input-set size.
func (s *LinkScheduler) Stats() []core.Stat {
	s.mu.Lock()
	inputs := len(s.inputs)
	s.mu.Unlock()
	return append(s.statList(), core.G("sched_inputs", "inputs", float64(inputs)))
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
