package resources

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustTask(t *testing.T, m *Manager, spec TaskSpec) *Task {
	t.Helper()
	task, err := m.CreateTask(spec)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// ---- manager / tasks --------------------------------------------------------

func TestCreateAndLookupTask(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "fwd", Weight: 3, Priority: 2})
	if task.Name() != "fwd" || task.Weight() != 3 || task.Priority() != 2 {
		t.Fatalf("task = %+v", task)
	}
	got, err := m.Task("fwd")
	if err != nil || got != task {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if _, err := m.Task("nope"); !errors.Is(err, ErrTaskNotFound) {
		t.Fatalf("want ErrTaskNotFound, got %v", err)
	}
	if _, err := m.CreateTask(TaskSpec{Name: "fwd"}); !errors.Is(err, ErrTaskExists) {
		t.Fatalf("want ErrTaskExists, got %v", err)
	}
	if _, err := m.CreateTask(TaskSpec{}); err == nil {
		t.Fatal("want error for empty name")
	}
	if names := m.Tasks(); len(names) != 1 || names[0] != "fwd" {
		t.Fatalf("tasks = %v", names)
	}
}

func TestDeleteTask(t *testing.T) {
	m := NewManager()
	mustTask(t, m, TaskSpec{Name: "a"})
	if err := m.DeleteTask("a"); err != nil {
		t.Fatal(err)
	}
	if err := m.DeleteTask("a"); !errors.Is(err, ErrTaskNotFound) {
		t.Fatalf("want ErrTaskNotFound, got %v", err)
	}
}

func TestDefaultWeight(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "w0", Weight: 0})
	if task.Weight() != 1 {
		t.Fatalf("weight = %d, want defaulted 1", task.Weight())
	}
}

// ---- memory budget ------------------------------------------------------------

func TestMemoryBudgetEnforced(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "mem", MemBudget: 100})
	if err := task.ChargeMemory(60); err != nil {
		t.Fatal(err)
	}
	if err := task.ChargeMemory(41); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if err := task.ChargeMemory(40); err != nil {
		t.Fatal(err)
	}
	task.ReleaseMemory(50)
	if err := task.ChargeMemory(50); err != nil {
		t.Fatal(err)
	}
	s := task.Stats()
	if s.MemUsed != 100 || s.MemPeak != 100 || s.Rejected != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMemoryUnlimitedByDefault(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "mem"})
	if err := task.ChargeMemory(1 << 40); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryOverReleaseClamps(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "mem", MemBudget: 10})
	if err := task.ChargeMemory(5); err != nil {
		t.Fatal(err)
	}
	task.ReleaseMemory(50)
	if used := task.Stats().MemUsed; used != 0 {
		t.Fatalf("used = %d after over-release", used)
	}
	if task.Stats().Rejected == 0 {
		t.Fatal("over-release not counted")
	}
}

func TestNegativeChargeRejected(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "mem"})
	if err := task.ChargeMemory(-1); err == nil {
		t.Fatal("want error")
	}
}

func TestConcurrentMemoryAccounting(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "mem", MemBudget: 1000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if task.ChargeMemory(10) == nil {
					task.ReleaseMemory(10)
				}
			}
		}()
	}
	wg.Wait()
	if used := task.Stats().MemUsed; used != 0 {
		t.Fatalf("leaked %d bytes", used)
	}
}

// ---- abstract resources ----------------------------------------------------------

func TestAbstractResources(t *testing.T) {
	m := NewManager()
	if err := m.DefineAbstract("flows", 3); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineAbstract("flows", 3); !errors.Is(err, ErrTaskExists) {
		t.Fatalf("want ErrTaskExists, got %v", err)
	}
	if err := m.DefineAbstract("", 3); err == nil {
		t.Fatal("want error for empty name")
	}
	if err := m.AcquireAbstract("flows", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireAbstract("flows", 2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	used, capacity, err := m.AbstractUsage("flows")
	if err != nil || used != 2 || capacity != 3 {
		t.Fatalf("usage = %d/%d %v", used, capacity, err)
	}
	if err := m.ReleaseAbstract("flows", 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireAbstract("flows", 2); err != nil {
		t.Fatal(err)
	}
	if err := m.AcquireAbstract("ghost", 1); !errors.Is(err, ErrNoSuchResource) {
		t.Fatalf("want ErrNoSuchResource, got %v", err)
	}
	if err := m.ReleaseAbstract("ghost", 1); !errors.Is(err, ErrNoSuchResource) {
		t.Fatalf("want ErrNoSuchResource, got %v", err)
	}
	if _, _, err := m.AbstractUsage("ghost"); !errors.Is(err, ErrNoSuchResource) {
		t.Fatalf("want ErrNoSuchResource, got %v", err)
	}
}

// ---- schedulers -------------------------------------------------------------------

func item(task *Task, seq uint64) *WorkItem {
	return &WorkItem{Task: task, Run: func() {}, seq: seq}
}

func TestFIFOOrder(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "t"})
	s := NewFIFOScheduler()
	for i := uint64(1); i <= 5; i++ {
		s.Push(item(task, i))
	}
	for i := uint64(1); i <= 5; i++ {
		it := s.Pop()
		if it == nil || it.seq != i {
			t.Fatalf("pop %d = %+v", i, it)
		}
	}
	if s.Pop() != nil {
		t.Fatal("pop from empty")
	}
	if s.Name() != "fifo" {
		t.Fatal("name")
	}
}

func TestPriorityOrder(t *testing.T) {
	m := NewManager()
	lo := mustTask(t, m, TaskSpec{Name: "lo", Priority: 1})
	hi := mustTask(t, m, TaskSpec{Name: "hi", Priority: 9})
	s := NewPriorityScheduler()
	s.Push(item(lo, 1))
	s.Push(item(lo, 2))
	s.Push(item(hi, 3))
	s.Push(item(hi, 4))
	order := []*Task{hi, hi, lo, lo}
	seqs := []uint64{3, 4, 1, 2}
	for i, want := range order {
		it := s.Pop()
		if it.Task != want || it.seq != seqs[i] {
			t.Fatalf("pop %d = task %s seq %d", i, it.Task.Name(), it.seq)
		}
	}
	if s.Len() != 0 || s.Pop() != nil {
		t.Fatal("not empty")
	}
	if s.Name() != "priority" {
		t.Fatal("name")
	}
}

func TestWFQProportionalService(t *testing.T) {
	m := NewManager()
	heavy := mustTask(t, m, TaskSpec{Name: "heavy", Weight: 3})
	light := mustTask(t, m, TaskSpec{Name: "light", Weight: 1})
	s := NewWFQScheduler()
	seq := uint64(0)
	for i := 0; i < 400; i++ {
		seq++
		s.Push(item(heavy, seq))
		seq++
		s.Push(item(light, seq))
	}
	// Serve 200 items; heavy should get ~3x light's service.
	served := map[*Task]int{}
	for i := 0; i < 200; i++ {
		it := s.Pop()
		served[it.Task]++
	}
	h, l := served[heavy], served[light]
	if h < l*2 {
		t.Fatalf("service ratio h=%d l=%d, want ~3:1", h, l)
	}
	if l == 0 {
		t.Fatal("light task starved")
	}
}

func TestWFQIdleTaskDoesNotBankCredit(t *testing.T) {
	m := NewManager()
	a := mustTask(t, m, TaskSpec{Name: "a", Weight: 1})
	b := mustTask(t, m, TaskSpec{Name: "b", Weight: 1})
	s := NewWFQScheduler()
	seq := uint64(0)
	push := func(task *Task) {
		seq++
		s.Push(item(task, seq))
	}
	// a runs alone for a while, advancing its pass.
	for i := 0; i < 100; i++ {
		push(a)
	}
	for i := 0; i < 100; i++ {
		s.Pop()
	}
	// b wakes up; it must not monopolise service to "catch up".
	for i := 0; i < 100; i++ {
		push(a)
		push(b)
	}
	served := map[*Task]int{}
	for i := 0; i < 100; i++ {
		served[s.Pop().Task]++
	}
	if served[a] < 30 || served[b] < 30 {
		t.Fatalf("post-idle service skew: a=%d b=%d", served[a], served[b])
	}
}

func TestWFQEmptyPop(t *testing.T) {
	s := NewWFQScheduler()
	if s.Pop() != nil || s.Len() != 0 {
		t.Fatal("empty scheduler misbehaved")
	}
	if s.Name() != "wfq" {
		t.Fatal("name")
	}
}

// Property: every scheduler conserves items — what goes in comes out
// exactly once, regardless of interleaving.
func TestQuickSchedulerConservation(t *testing.T) {
	m := NewManager()
	tasks := []*Task{
		mustTask(t, m, TaskSpec{Name: "q1", Weight: 1, Priority: 1}),
		mustTask(t, m, TaskSpec{Name: "q2", Weight: 2, Priority: 5}),
		mustTask(t, m, TaskSpec{Name: "q3", Weight: 7, Priority: 3}),
	}
	mk := []func() Scheduler{
		func() Scheduler { return NewFIFOScheduler() },
		func() Scheduler { return NewPriorityScheduler() },
		func() Scheduler { return NewWFQScheduler() },
	}
	check := func(ops []uint8, which uint8) bool {
		s := mk[int(which)%len(mk)]()
		seen := map[uint64]bool{}
		var pushed, popped int
		seq := uint64(0)
		for _, op := range ops {
			if op%3 != 0 { // push twice as often as pop
				seq++
				s.Push(item(tasks[int(op)%len(tasks)], seq))
				pushed++
			} else {
				if it := s.Pop(); it != nil {
					if seen[it.seq] {
						return false // duplicate delivery
					}
					seen[it.seq] = true
					popped++
				}
			}
			if s.Len() != pushed-popped {
				return false
			}
		}
		for {
			it := s.Pop()
			if it == nil {
				break
			}
			if seen[it.seq] {
				return false
			}
			seen[it.seq] = true
			popped++
		}
		return pushed == popped
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// ---- pool ------------------------------------------------------------------------

func TestPoolExecutesAndAccounts(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "t"})
	p, err := NewPool(4, NewFIFOScheduler())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.Submit(task, func() {
			defer wg.Done()
			mu.Lock()
			count++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	p.Stop(false)
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if task.Stats().Jobs != 100 {
		t.Fatalf("jobs = %d", task.Stats().Jobs)
	}
}

func TestPoolStopDrain(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "t"})
	p, err := NewPool(1, NewFIFOScheduler())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	ran := 0
	block := make(chan struct{})
	if err := p.Submit(task, func() { <-block }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Submit(task, func() {
			mu.Lock()
			ran++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	p.Stop(true)
	mu.Lock()
	defer mu.Unlock()
	if ran != 10 {
		t.Fatalf("drained %d of 10", ran)
	}
}

func TestPoolStopAbandons(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "t"})
	p, err := NewPool(1, NewFIFOScheduler())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(task, func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	var ran sync.Map
	for i := 0; i < 5; i++ {
		if err := p.Submit(task, func() { ran.Store("x", true) }); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	p.Stop(false)
	if _, found := ran.Load("x"); found && p.Pending() == 0 {
		// Some queued work may have raced in before stop; that's acceptable —
		// the assertion is that Stop returned with all workers exited.
		return
	}
}

func TestPoolSubmitAfterStop(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "t"})
	p, err := NewPool(1, NewFIFOScheduler())
	if err != nil {
		t.Fatal(err)
	}
	p.Stop(false)
	if err := p.Submit(task, func() {}); !errors.Is(err, ErrPoolStopped) {
		t.Fatalf("want ErrPoolStopped, got %v", err)
	}
	p.Stop(false) // idempotent
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, NewFIFOScheduler()); err == nil {
		t.Fatal("want error for 0 workers")
	}
	if _, err := NewPool(1, nil); err == nil {
		t.Fatal("want error for nil scheduler")
	}
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "t"})
	p, err := NewPool(1, NewFIFOScheduler())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop(false)
	if err := p.Submit(nil, func() {}); err == nil {
		t.Fatal("want error for nil task")
	}
	if err := p.Submit(task, nil); err == nil {
		t.Fatal("want error for nil fn")
	}
}

func TestPoolSwapSchedulerUnderLoad(t *testing.T) {
	m := NewManager()
	task := mustTask(t, m, TaskSpec{Name: "t"})
	p, err := NewPool(2, NewFIFOScheduler())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		if err := p.Submit(task, func() { defer wg.Done(); time.Sleep(time.Microsecond) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SwapScheduler(NewWFQScheduler()); err != nil {
		t.Fatal(err)
	}
	if got := p.SchedulerName(); got != "wfq" {
		t.Fatalf("scheduler = %q", got)
	}
	wg.Wait()
	p.Stop(false)
	if task.Stats().Jobs != 200 {
		t.Fatalf("jobs = %d: items lost across swap", task.Stats().Jobs)
	}
}

func TestPoolSwapNil(t *testing.T) {
	p, err := NewPool(1, NewFIFOScheduler())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop(false)
	if err := p.SwapScheduler(nil); err == nil {
		t.Fatal("want error")
	}
}

// ---- token bucket -------------------------------------------------------------------

func TestTokenBucketConformance(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b, err := NewTokenBucket(1000, 500, clock) // 1000 B/s, 500 B burst
	if err != nil {
		t.Fatal(err)
	}
	if !b.Allow(500) {
		t.Fatal("burst not available")
	}
	if b.Allow(1) {
		t.Fatal("over-burst allowed")
	}
	now = now.Add(100 * time.Millisecond) // +100 tokens
	if !b.Allow(100) {
		t.Fatal("refilled tokens unavailable")
	}
	if b.Allow(1) {
		t.Fatal("tokens over-refilled")
	}
	now = now.Add(10 * time.Second) // cap at burst
	if got := b.Tokens(); got != 500 {
		t.Fatalf("tokens = %f, want capped 500", got)
	}
	allowed, denied := b.Stats()
	if allowed != 2 || denied != 2 {
		t.Fatalf("stats = %d/%d", allowed, denied)
	}
}

func TestTokenBucketZeroAndNegative(t *testing.T) {
	b, err := NewTokenBucket(10, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Allow(0) || !b.Allow(-5) {
		t.Fatal("non-positive requests should be free")
	}
	if _, err := NewTokenBucket(0, 1, nil); err == nil {
		t.Fatal("want error for zero rate")
	}
	if _, err := NewTokenBucket(1, 0, nil); err == nil {
		t.Fatal("want error for zero burst")
	}
}

// Property: over any sequence of draws and waits, cumulative allowed bytes
// never exceed burst + rate * elapsed (the token bucket conformance bound).
func TestQuickTokenBucketBound(t *testing.T) {
	check := func(draws []uint16, waitsMs []uint8) bool {
		now := time.Unix(0, 0)
		clock := func() time.Time { return now }
		const rate, burst = 1000.0, 800.0
		b, err := NewTokenBucket(rate, burst, clock)
		if err != nil {
			return false
		}
		start := now
		var allowed float64
		for i, d := range draws {
			if i < len(waitsMs) {
				now = now.Add(time.Duration(waitsMs[i]) * time.Millisecond)
			}
			n := int(d) % 1000
			if b.Allow(n) {
				allowed += float64(n)
			}
			elapsed := now.Sub(start).Seconds()
			if allowed > burst+rate*elapsed+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
