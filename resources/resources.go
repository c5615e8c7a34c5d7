// Package resources implements the paper's resources meta-model
// ([Blair,99], §2): a privileged, per-capsule component framework giving
// fine-grained control over the resourcing of dynamically-delineable units
// of work called tasks. Tasks are deliberately orthogonal to the component
// architecture — a task may account for work spanning many components, and
// one component may serve many tasks.
//
// "Resources" subsume threads (worker pools with pluggable schedulers),
// memory (byte budgets charged/released around allocations), network
// bandwidth (token buckets) and abstract application-defined units of
// allocation (named counted capacities).
//
// Tasks also own threads: Task.Start runs a loop on a pprof-labelled
// goroutine and Task.Stop cancels and joins it. Every long-running
// data-plane goroutine is such a task, made with NewTask by the component
// that owns it and listed through its Tasks method. Task.Run drives a
// poll-mode step under one idle policy (Idle), and Park holds Run tasks
// at a step boundary: the park point of a consistent cut.
//
// # Relation to the data path
//
// The meta-model meters the router's batched fast path without changing
// its ownership rules: a token bucket admits each packet of a PushBatch
// individually (bytes are bytes, batched or not — see TokenShaper in the
// router package), and memory budgets cap the live buffers a pipeline may
// hold, not who holds them. Slice recycling (the [][]byte batch pools in
// internal/buffers, the []*Packet pools in the router package) is
// deliberately outside budget accounting: pooled batch headers carry no
// payload, so charging them would double-count the buffers they point at.
// The contract is the router package's: batch slices belong to their
// caller, packets to whoever was pushed them — budgets follow the packet,
// never the slice.
package resources

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors.
var (
	// ErrTaskExists indicates a duplicate task name.
	ErrTaskExists = errors.New("resources: task exists")
	// ErrTaskNotFound indicates an unknown task.
	ErrTaskNotFound = errors.New("resources: task not found")
	// ErrBudgetExceeded indicates a memory/abstract charge above budget.
	ErrBudgetExceeded = errors.New("resources: budget exceeded")
	// ErrPoolStopped indicates a submit to a stopped pool.
	ErrPoolStopped = errors.New("resources: pool stopped")
	// ErrNoSuchResource indicates an unknown abstract resource name.
	ErrNoSuchResource = errors.New("resources: no such abstract resource")
)

// Task is a unit of resource accounting. All fields are managed through
// methods; Tasks are safe for concurrent use.
type Task struct {
	name     string
	weight   int // scheduler weight (WFQ) — higher = more service
	priority int // scheduler priority — higher = sooner

	memBudget int64 // bytes; 0 = unlimited
	memUsed   atomic.Int64

	jobs     atomic.Uint64 // work items completed
	busy     atomic.Int64  // cumulative execution time, ns
	memPeak  atomic.Int64
	rejected atomic.Uint64 // charges refused

	abstract sync.Map // name -> *int64 (used), capacity in manager

	// The task's loop (Start/Stop); live flips false as it returns.
	run   sync.Mutex
	stop  context.CancelFunc // non-nil from Start until Stop
	done  chan struct{}      // closed as the loop returns
	fence chan parkReq       // Run's park requests; nil under Start
	live  atomic.Bool

	steps, work, spins, bellWakes, timerWakes, parks atomic.Uint64 // Run's
}

// NewTask returns a task outside any Manager's table: the owner of one
// component's long-running goroutine, reached through the component's
// Tasks method rather than by name.
func NewTask(name string) *Task { return &Task{name: name, weight: 1} }

// Start runs loop on a goroutine of its own, labelled for pprof with
// task=<name>. ctx carries the label, and its Done channel is the loop's
// quit signal: Stop cancels it. Starting a started task is a no-op, even
// once its loop has returned by itself; Stop resets it.
func (t *Task) Start(loop func(ctx context.Context)) { t.start(loop, nil) }

func (t *Task) start(loop func(ctx context.Context), fence chan parkReq) {
	t.run.Lock()
	defer t.run.Unlock()
	if t.stop != nil {
		return
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.stop, t.done, t.fence = stop, done, fence
	t.live.Store(true)
	go pprof.Do(ctx, pprof.Labels("task", t.name), func(ctx context.Context) {
		defer close(done)
		defer t.live.Store(false)
		loop(ctx)
	})
}

// Stop cancels the loop's context and joins its goroutine. It is
// idempotent, and safe before Start or before the loop has been
// scheduled at all. It holds the task across the join, so a concurrent
// Start or Stop returns only once the old loop is gone; the loop itself
// must not call it.
func (t *Task) Stop() {
	t.run.Lock()
	defer t.run.Unlock()
	if t.stop == nil {
		return
	}
	t.stop()
	<-t.done
	t.stop, t.done, t.fence = nil, nil, nil
}

// Running reports whether the task's loop is live: started, and neither
// stopped nor returned by itself.
func (t *Task) Running() bool { return t.live.Load() }

// Name returns the task name.
func (t *Task) Name() string { return t.name }

// Weight returns the task's WFQ weight.
func (t *Task) Weight() int { return t.weight }

// Priority returns the task's priority.
func (t *Task) Priority() int { return t.priority }

// ChargeMemory accounts n bytes against the task's memory budget,
// refusing with ErrBudgetExceeded when the budget would be passed. The
// buffer-management CF calls this around pooled allocations.
func (t *Task) ChargeMemory(n int64) error {
	if n < 0 {
		return fmt.Errorf("resources: negative charge %d", n)
	}
	for {
		cur := t.memUsed.Load()
		next := cur + n
		if t.memBudget > 0 && next > t.memBudget {
			t.rejected.Add(1)
			return fmt.Errorf("resources: task %q: %d+%d > %d: %w",
				t.name, cur, n, t.memBudget, ErrBudgetExceeded)
		}
		if t.memUsed.CompareAndSwap(cur, next) {
			for {
				peak := t.memPeak.Load()
				if next <= peak || t.memPeak.CompareAndSwap(peak, next) {
					break
				}
			}
			return nil
		}
	}
}

// ReleaseMemory returns n bytes to the budget.
func (t *Task) ReleaseMemory(n int64) {
	if n < 0 {
		return
	}
	if after := t.memUsed.Add(-n); after < 0 {
		// Releasing more than charged is a plug-in bug; clamp and count.
		t.memUsed.Store(0)
		t.rejected.Add(1)
	}
}

// TaskStats is a snapshot of per-task accounting. Steps to Parks are
// Run's counters, cumulative across restarts.
type TaskStats struct {
	Name                                             string
	Jobs                                             uint64
	BusyNanos                                        int64
	MemUsed                                          int64
	MemPeak                                          int64
	Rejected                                         uint64
	Running                                          bool // the task's own loop (Task.Start or Run) is live
	Steps, Work, Spins, BellWakes, TimerWakes, Parks uint64
}

// Stats returns the task's counters.
func (t *Task) Stats() TaskStats {
	return TaskStats{
		Name:       t.name,
		Jobs:       t.jobs.Load(),
		BusyNanos:  t.busy.Load(),
		MemUsed:    t.memUsed.Load(),
		MemPeak:    t.memPeak.Load(),
		Rejected:   t.rejected.Load(),
		Running:    t.Running(),
		Steps:      t.steps.Load(),
		Work:       t.work.Load(),
		Spins:      t.spins.Load(),
		BellWakes:  t.bellWakes.Load(),
		TimerWakes: t.timerWakes.Load(),
		Parks:      t.parks.Load(),
	}
}

// recordRun is called by worker pools after executing an item.
func (t *Task) recordRun(d time.Duration) {
	t.jobs.Add(1)
	t.busy.Add(int64(d))
}

// TaskSpec configures a new task.
type TaskSpec struct {
	Name      string
	Weight    int   // WFQ weight; default 1
	Priority  int   // priority-scheduler rank; default 0
	MemBudget int64 // bytes; 0 = unlimited
}

// abstractResource is a named counted capacity.
type abstractResource struct {
	capacity int64
	used     atomic.Int64
}

// Manager is the per-capsule resources meta-model instance: the task table
// plus the abstract resource pools.
type Manager struct {
	mu    sync.RWMutex
	tasks map[string]*Task
	abs   map[string]*abstractResource
}

// NewManager returns an empty Manager.
func NewManager() *Manager {
	return &Manager{tasks: make(map[string]*Task), abs: make(map[string]*abstractResource)}
}

// CreateTask registers a new task.
func (m *Manager) CreateTask(spec TaskSpec) (*Task, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("resources: empty task name")
	}
	if spec.Weight <= 0 {
		spec.Weight = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tasks[spec.Name]; ok {
		return nil, fmt.Errorf("resources: %q: %w", spec.Name, ErrTaskExists)
	}
	t := &Task{
		name: spec.Name, weight: spec.Weight,
		priority: spec.Priority, memBudget: spec.MemBudget,
	}
	m.tasks[spec.Name] = t
	return t, nil
}

// Task returns the named task.
func (m *Manager) Task(name string) (*Task, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tasks[name]
	if !ok {
		return nil, fmt.Errorf("resources: %q: %w", name, ErrTaskNotFound)
	}
	return t, nil
}

// DeleteTask removes a task from the table (its outstanding accounting is
// abandoned — the caller owns quiescence).
func (m *Manager) DeleteTask(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.tasks[name]; !ok {
		return fmt.Errorf("resources: %q: %w", name, ErrTaskNotFound)
	}
	delete(m.tasks, name)
	return nil
}

// Tasks returns all task names, sorted.
func (m *Manager) Tasks() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.tasks))
	for n := range m.tasks {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefineAbstract creates a named abstract resource with the given capacity
// (the paper: "abstract, application-defined, units of allocation").
func (m *Manager) DefineAbstract(name string, capacity int64) error {
	if name == "" || capacity <= 0 {
		return fmt.Errorf("resources: bad abstract resource %q cap %d", name, capacity)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.abs[name]; ok {
		return fmt.Errorf("resources: abstract %q: %w", name, ErrTaskExists)
	}
	m.abs[name] = &abstractResource{capacity: capacity}
	return nil
}

// AcquireAbstract takes n units of the named resource.
func (m *Manager) AcquireAbstract(name string, n int64) error {
	m.mu.RLock()
	r, ok := m.abs[name]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("resources: %q: %w", name, ErrNoSuchResource)
	}
	for {
		cur := r.used.Load()
		if cur+n > r.capacity {
			return fmt.Errorf("resources: abstract %q %d+%d > %d: %w",
				name, cur, n, r.capacity, ErrBudgetExceeded)
		}
		if r.used.CompareAndSwap(cur, cur+n) {
			return nil
		}
	}
}

// ReleaseAbstract returns n units.
func (m *Manager) ReleaseAbstract(name string, n int64) error {
	m.mu.RLock()
	r, ok := m.abs[name]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("resources: %q: %w", name, ErrNoSuchResource)
	}
	if after := r.used.Add(-n); after < 0 {
		r.used.Store(0)
	}
	return nil
}

// AbstractUsage reports (used, capacity).
func (m *Manager) AbstractUsage(name string) (used, capacity int64, err error) {
	m.mu.RLock()
	r, ok := m.abs[name]
	m.mu.RUnlock()
	if !ok {
		return 0, 0, fmt.Errorf("resources: %q: %w", name, ErrNoSuchResource)
	}
	return r.used.Load(), r.capacity, nil
}
