package router

import (
	"context"
	"fmt"
	"math"

	"netkit/core"
)

// Exportable is implemented by stateful components that support state
// migration across hot-swap (e.g. a queue handing its buffered packets to
// its replacement).
type Exportable interface {
	// ExportState returns an opaque state snapshot, quiescing the exporter.
	ExportState() any
	// ImportState installs a snapshot produced by a compatible exporter.
	ImportState(state any) error
}

// HotSwap replaces component oldName with newComp (inserted as newName)
// without losing packets:
//
//  1. newComp is inserted and its receptacles are bound to the same
//     targets as oldName's (the downstream wiring is duplicated);
//  2. every binding INTO oldName is atomically retargeted to newName via
//     the capsule's Rebind primitive (single atomic pointer swap per
//     binding — concurrent pushes see old or new, never a gap);
//  3. if both components implement Exportable, state is migrated. The
//     standard queues seal on export: a push that loaded the old target
//     just before step 2 and arrives after the drain is handed on to
//     newComp, so it is not stranded in a removed queue;
//  4. oldName's bindings are dismantled and the component is removed.
//
// Conservation holds with pushers running; per-flow order across the swap
// does not. Packets pushed between steps 2 and 3 enter newComp ahead of
// the migrated backlog, and a handed-on late push may too. A caller that
// needs order quiesces the pushers around the swap, as ShardedCF.HotSwap
// does by parking its lanes.
//
// The old component must not be a composite boundary re-exporting shared
// receptacles. On failure the capsule may be left with newName inserted
// but no traffic diverted (safe to retry or remove).
func HotSwap(c *core.Capsule, oldName, newName string, newComp core.Component) error {
	oldComp, ok := c.Component(oldName)
	if !ok {
		return fmt.Errorf("router: hotswap: %q: %w", oldName, core.ErrNotFound)
	}
	if err := c.Insert(newName, newComp); err != nil {
		return err
	}

	// Duplicate the outgoing wiring: for each of old's bound receptacles,
	// bind new's same-named receptacle to the same server.
	for _, b := range c.BindingsOf(oldName) {
		from, recp := b.From()
		if from != oldName {
			continue
		}
		to, iface := b.To()
		if _, ok := newComp.Receptacle(recp); !ok {
			return fmt.Errorf("router: hotswap: replacement lacks receptacle %q: %w",
				recp, core.ErrNotFound)
		}
		if _, err := c.Bind(newName, recp, to, iface); err != nil {
			return fmt.Errorf("router: hotswap: rewiring %s.%s: %w", newName, recp, err)
		}
	}

	// Match the old component's lifecycle state before diverting traffic,
	// so active replacements (pumps, schedulers) are already running when
	// the first packet arrives.
	if c.Started(oldName) {
		if err := c.StartComponent(context.Background(), newName); err != nil {
			return err
		}
	}

	// Divert traffic: atomically retarget every inbound binding.
	for _, b := range c.BindingsOf(oldName) {
		to, _ := b.To()
		if to != oldName {
			continue
		}
		if err := c.Rebind(b.ID(), newName); err != nil {
			return fmt.Errorf("router: hotswap: diverting #%d: %w", b.ID(), err)
		}
	}

	// Migrate state after diversion, so the exporter sees no new input
	// beyond the late pushes its seal hands to the replacement.
	if exp, ok := oldComp.(Exportable); ok {
		if imp, ok := newComp.(Exportable); ok {
			if s, ok := oldComp.(interface{ setHeir(IPacketPush) }); ok {
				if next, ok := newComp.Provided(IPacketPushID); ok {
					s.setHeir(next.(IPacketPush))
				}
			}
			if err := imp.ImportState(exp.ExportState()); err != nil {
				return fmt.Errorf("router: hotswap: state migration: %w", err)
			}
		}
	}

	// Dismantle the old component's own outgoing bindings and remove it.
	for _, b := range c.BindingsOf(oldName) {
		from, _ := b.From()
		if from == oldName {
			if err := c.Unbind(b.ID()); err != nil {
				return err
			}
		}
	}
	if c.Started(oldName) {
		if err := c.StopComponent(context.Background(), oldName); err != nil {
			return err
		}
	}
	return c.Remove(oldName)
}

// Queue state migration ------------------------------------------------------

// fifoState is the exported form of a queue's buffered packets. FIFOQueue
// and REDQueue both speak it, so hot-swap migrates state in either
// direction — the FIFO↔RED substitution the adaptation engine performs
// when sustained occupancy calls for (or no longer needs) early dropping.
// The doorbell moves too: the puller whose binding HotSwap retargeted may
// be asleep on it, and the replacement must be the one to wake it.
type fifoState struct {
	packets []*Packet
	bell    chan struct{}
}

// adoptBell takes over the predecessor's doorbell, if it had one.
func (c *queueCore) adoptBell(st *fifoState) {
	if st.bell != nil {
		c.setBell(st.bell)
	}
}

// setHeir records where packets reaching the queue after ExportState go.
func (c *queueCore) setHeir(next IPacketPush) {
	c.mu.Lock()
	c.heir = next
	c.mu.Unlock()
}

// ExportState implements Exportable: it seals the queue and drains it, in
// one critical section, so no push can land behind the drain.
func (c *queueCore) ExportState() any {
	c.mu.Lock()
	c.sealed = true
	ps := c.drainLocked(nil, c.size, math.MaxInt)
	bell := c.bell
	c.mu.Unlock()
	c.out.Add(uint64(len(ps)))
	return &fifoState{packets: ps, bell: bell}
}

// ImportState implements Exportable.
func (q *FIFOQueue) ImportState(state any) error {
	st, ok := state.(*fifoState)
	if !ok {
		return fmt.Errorf("router: fifo import: bad state %T", state)
	}
	q.adoptBell(st)
	return q.PushBatch(st.packets)
}

var _ Exportable = (*FIFOQueue)(nil)

// ImportState implements Exportable. Migrated packets were already
// admitted by the predecessor queue, so they bypass RED's admission test
// and enqueue directly; only a genuinely full ring drops (counted as a
// forced drop). The EWMA is seeded to the imported backlog, so a queue
// swapped in *because* of congestion starts early-dropping immediately
// instead of spending ~1/weight arrivals warming up from zero.
func (q *REDQueue) ImportState(state any) error {
	st, ok := state.(*fifoState)
	if !ok {
		return fmt.Errorf("router: red import: bad state %T", state)
	}
	q.adoptBell(st)
	q.mu.Lock()
	wasEmpty := q.size == 0
	take := min(len(st.packets), len(q.ring)-q.size)
	for _, p := range st.packets[:take] {
		q.putLocked(p)
	}
	if avg := float64(q.size); q.avg < avg {
		q.avg = avg
	}
	q.unlockRing(wasEmpty)
	q.in.Add(uint64(len(st.packets)))
	if over := st.packets[take:]; len(over) > 0 {
		q.forcedDrops.Add(uint64(len(over)))
		q.dropped.Add(uint64(len(over)))
		for _, p := range over {
			p.Release()
		}
	}
	return nil
}

var _ Exportable = (*REDQueue)(nil)
