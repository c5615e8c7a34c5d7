package resources

import "container/heap"

// WorkItem is one schedulable unit: a function attributed to a task.
type WorkItem struct {
	Task *Task
	Run  func()
	seq  uint64 // FIFO tie-break, assigned by Push
}

// Scheduler orders work items. Implementations are the "pluggable
// schedulers" of the paper's thread-management CF. Schedulers are NOT
// safe for concurrent use; the caller serialises access.
type Scheduler interface {
	// Name identifies the policy ("fifo", "priority", "wfq").
	Name() string
	// Push enqueues an item.
	Push(it *WorkItem)
	// Pop dequeues the next item per policy, or nil when empty.
	Pop() *WorkItem
	// Len reports queued items.
	Len() int
}

// ---------------------------------------------------------------------------
// FIFO

// FIFOScheduler serves items strictly in arrival order.
type FIFOScheduler struct {
	q []*WorkItem
}

// NewFIFOScheduler returns an empty FIFO policy.
func NewFIFOScheduler() *FIFOScheduler { return &FIFOScheduler{} }

// Name implements Scheduler.
func (s *FIFOScheduler) Name() string { return "fifo" }

// Push implements Scheduler.
func (s *FIFOScheduler) Push(it *WorkItem) { s.q = append(s.q, it) }

// Pop implements Scheduler.
func (s *FIFOScheduler) Pop() *WorkItem {
	if len(s.q) == 0 {
		return nil
	}
	it := s.q[0]
	s.q[0] = nil
	s.q = s.q[1:]
	return it
}

// Len implements Scheduler.
func (s *FIFOScheduler) Len() int { return len(s.q) }

// ---------------------------------------------------------------------------
// Priority

// PriorityScheduler serves the highest task priority first; FIFO within a
// priority level.
type PriorityScheduler struct {
	h   prioHeap
	seq uint64
}

// NewPriorityScheduler returns an empty priority policy.
func NewPriorityScheduler() *PriorityScheduler { return &PriorityScheduler{} }

// Name implements Scheduler.
func (s *PriorityScheduler) Name() string { return "priority" }

// Push implements Scheduler.
func (s *PriorityScheduler) Push(it *WorkItem) {
	s.seq++
	it.seq = s.seq
	heap.Push(&s.h, it)
}

// Pop implements Scheduler.
func (s *PriorityScheduler) Pop() *WorkItem {
	if s.h.Len() == 0 {
		return nil
	}
	return heap.Pop(&s.h).(*WorkItem)
}

// Len implements Scheduler.
func (s *PriorityScheduler) Len() int { return s.h.Len() }

type prioHeap []*WorkItem

func (h prioHeap) Len() int { return len(h) }
func (h prioHeap) Less(i, j int) bool {
	pi, pj := h[i].Task.Priority(), h[j].Task.Priority()
	if pi != pj {
		return pi > pj // higher priority first
	}
	return h[i].seq < h[j].seq
}
func (h prioHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *prioHeap) Push(x any)   { *h = append(*h, x.(*WorkItem)) }
func (h *prioHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// ---------------------------------------------------------------------------
// Weighted fair (stride scheduling)

// strideOne is the stride numerator; pass advances by strideOne/weight per
// dispatch, so a task with twice the weight receives twice the service.
const strideOne = 1 << 20

// WFQScheduler implements stride scheduling across tasks: each task has a
// virtual "pass"; the runnable task with the smallest pass is served and
// its pass advances inversely to its weight.
type WFQScheduler struct {
	queues map[*Task][]*WorkItem
	pass   map[*Task]uint64
	global uint64 // min pass floor so newly-busy tasks don't starve others
	n      int
	seq    uint64
}

// NewWFQScheduler returns an empty weighted-fair policy.
func NewWFQScheduler() *WFQScheduler {
	return &WFQScheduler{
		queues: make(map[*Task][]*WorkItem),
		pass:   make(map[*Task]uint64),
	}
}

// Name implements Scheduler.
func (s *WFQScheduler) Name() string { return "wfq" }

// Push implements Scheduler.
func (s *WFQScheduler) Push(it *WorkItem) {
	s.seq++
	it.seq = s.seq
	q := s.queues[it.Task]
	if len(q) == 0 {
		// Task becomes runnable: charge it at least the global floor so it
		// cannot bank service while idle.
		if s.pass[it.Task] < s.global {
			s.pass[it.Task] = s.global
		}
	}
	s.queues[it.Task] = append(q, it)
	s.n++
}

// Pop implements Scheduler.
func (s *WFQScheduler) Pop() *WorkItem {
	if s.n == 0 {
		return nil
	}
	var best *Task
	var bestPass uint64
	var bestSeq uint64
	for task, q := range s.queues {
		if len(q) == 0 {
			continue
		}
		p := s.pass[task]
		if best == nil || p < bestPass || (p == bestPass && q[0].seq < bestSeq) {
			best, bestPass, bestSeq = task, p, q[0].seq
		}
	}
	q := s.queues[best]
	it := q[0]
	q[0] = nil
	if len(q) == 1 {
		delete(s.queues, best)
	} else {
		s.queues[best] = q[1:]
	}
	s.n--
	s.pass[best] = bestPass + strideOne/uint64(best.Weight())
	if bestPass > s.global {
		s.global = bestPass
	}
	return it
}

// Len implements Scheduler.
func (s *WFQScheduler) Len() int { return s.n }
