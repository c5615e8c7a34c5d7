package resources

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTaskStopJoins(t *testing.T) {
	task := NewTask("loop")
	var exited atomic.Bool
	task.Start(func(ctx context.Context) {
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond) // Stop must wait this out
		exited.Store(true)
	})
	if !task.Running() || !task.Stats().Running {
		t.Fatal("a started task does not report running")
	}
	task.Stop()
	if !exited.Load() {
		t.Fatal("Stop returned before the loop did")
	}
	if task.Running() {
		t.Fatal("a stopped task reports running")
	}
}

func TestTaskStopIdempotent(t *testing.T) {
	task := NewTask("loop")
	task.Stop() // never started
	var runs atomic.Int32
	task.Start(func(ctx context.Context) { runs.Add(1); <-ctx.Done() })
	task.Start(func(ctx context.Context) { runs.Add(1); <-ctx.Done() }) // no-op while started
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); task.Stop() }()
	}
	wg.Wait()
	task.Stop()
	if n := runs.Load(); n != 1 {
		t.Fatalf("loop ran %d times, want 1", n)
	}
}

// TestTaskStopBeforeScheduled stops each task right after starting it; on
// one P the loop has not run yet when Stop closes its quit channel.
func TestTaskStopBeforeScheduled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ran, sawQuit atomic.Int32
	for i := 0; i < 100; i++ {
		task := NewTask("early")
		task.Start(func(ctx context.Context) {
			ran.Add(1)
			select {
			case <-ctx.Done():
				sawQuit.Add(1)
			default:
				<-ctx.Done()
			}
		})
		task.Stop()
		if task.Running() {
			t.Fatal("task running after Stop")
		}
	}
	if ran.Load() != 100 {
		t.Fatalf("%d of 100 loops ran", ran.Load())
	}
	t.Logf("%d of 100 loops first saw their quit channel already closed", sawQuit.Load())
}

func TestTaskReapsSelfReturn(t *testing.T) {
	task := NewTask("oneshot")
	var runs atomic.Int32
	loop := func(context.Context) { runs.Add(1) }
	task.Start(loop)
	waitFor(t, "the loop to return", func() bool { return !task.Running() })
	task.Start(loop) // still started until Stop: a no-op
	done := make(chan struct{})
	go func() { task.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop blocked on a loop that had returned")
	}
	task.Start(loop) // restartable after Stop
	waitFor(t, "the second run", func() bool { return runs.Load() == 2 && !task.Running() })
	task.Stop()
}

func TestTaskPprofLabel(t *testing.T) {
	task := NewTask("lane3")
	got := make(chan string, 1)
	task.Start(func(ctx context.Context) {
		v, _ := pprof.Label(ctx, "task")
		got <- v
		<-ctx.Done()
	})
	defer task.Stop()
	if v := <-got; v != "lane3" {
		t.Fatalf("pprof label task=%q, want lane3", v)
	}
}

// idleStep is a step that never finds work.
func idleStep(context.Context) (int, error) { return 0, nil }

func TestTaskRunSpinsThenParksOnce(t *testing.T) {
	task := NewTask("spin")
	task.Run(idleStep, Idle{Spin: 3})
	defer task.Stop()
	waitFor(t, "the first park", func() bool { return task.Stats().Parks == 1 })
	time.Sleep(10 * time.Millisecond) // no bell, no timer: it stays parked
	st := task.Stats()
	if st.Steps != 4 || st.Spins != 3 || st.Parks != 1 || st.Work != 0 {
		t.Fatalf("steps=%d spins=%d parks=%d work=%d, want 4, 3, 1, 0",
			st.Steps, st.Spins, st.Parks, st.Work)
	}
}

func TestTaskRunArmsBeforeEveryPark(t *testing.T) {
	task := NewTask("arm")
	var arms, early atomic.Uint64
	task.Run(idleStep, Idle{Fallback: time.Millisecond, Arm: func() bool {
		if task.Stats().Parks != arms.Load() {
			early.Add(1)
		}
		arms.Add(1)
		return true
	}})
	waitFor(t, "three parks", func() bool { return task.Stats().Parks >= 3 })
	task.Stop()
	if st := task.Stats(); arms.Load() != st.Parks || early.Load() != 0 {
		t.Fatalf("%d arms for %d parks, %d of them out of turn", arms.Load(), st.Parks, early.Load())
	}
}

func TestTaskRunCountsBellAndTimerWakesApart(t *testing.T) {
	task := NewTask("wakes")
	bell := make(chan struct{}, 1)
	task.Run(idleStep, Idle{Bell: bell, Fallback: time.Millisecond})
	for i := uint64(1); i <= 5; i++ {
		bell <- struct{}{}
		waitFor(t, "a bell wake", func() bool { return task.Stats().BellWakes == i })
	}
	waitFor(t, "a timer wake", func() bool { return task.Stats().TimerWakes > 0 })
	task.Stop()
	st := task.Stats()
	if st.BellWakes != 5 {
		t.Fatalf("%d bell wakes for 5 rings", st.BellWakes)
	}
	if ended := st.BellWakes + st.TimerWakes; st.Parks != ended && st.Parks != ended+1 {
		t.Fatalf("%d parks but %d bell and %d timer wakes", st.Parks, st.BellWakes, st.TimerWakes)
	}
}

func TestTaskRunStepErrorEndsTask(t *testing.T) {
	task := NewTask("fail")
	task.Run(func(context.Context) (int, error) { return 0, errors.New("closed") }, Idle{})
	defer task.Stop()
	waitFor(t, "the loop to end", func() bool { return !task.Running() })
	if st := task.Stats(); st.Steps != 1 || st.Parks != 0 {
		t.Fatalf("steps=%d parks=%d after a failing step, want 1, 0", st.Steps, st.Parks)
	}
}

// TestTaskParkHoldsStepsUntilResume: Park returns only once the task has
// worked off its backlog, and the parked task runs no step, bell or not,
// until resume.
func TestTaskParkHoldsStepsUntilResume(t *testing.T) {
	task := NewTask("held")
	var backlog atomic.Int64
	backlog.Store(50)
	bell := make(chan struct{}, 1)
	task.Run(func(context.Context) (int, error) {
		if backlog.Load() > 0 {
			backlog.Add(-1)
			return 1, nil
		}
		return 0, nil
	}, Idle{Bell: bell})
	defer task.Stop()
	resume, err := Park(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if n := backlog.Load(); n != 0 {
		t.Fatalf("parked with %d work items left", n)
	}
	steps := task.Stats().Steps
	bell <- struct{}{}
	time.Sleep(10 * time.Millisecond)
	if got := task.Stats().Steps; got != steps {
		t.Fatalf("a parked task ran %d steps", got-steps)
	}
	resume()
	waitFor(t, "a step after resume", func() bool { return task.Stats().Steps > steps })
}

// TestTaskParkSeesWorkOfferedBefore: work offered to an idle task
// without ringing its bell is still done before Park returns, because a
// request that wakes the task is honoured only after a step that finds
// nothing.
func TestTaskParkSeesWorkOfferedBefore(t *testing.T) {
	task := NewTask("late")
	var backlog atomic.Int64
	task.Run(func(context.Context) (int, error) {
		if backlog.Load() > 0 {
			backlog.Add(-1)
			return 1, nil
		}
		return 0, nil
	}, Idle{Bell: make(chan struct{})})
	defer task.Stop()
	waitFor(t, "an idle park", func() bool { return task.Stats().Parks == 1 })
	backlog.Store(5)
	resume, err := Park(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	defer resume()
	if n := backlog.Load(); n != 0 {
		t.Fatalf("parked with %d work items offered before Park", n)
	}
}

func TestTaskStopParked(t *testing.T) {
	task := NewTask("parked")
	task.Run(idleStep, Idle{})
	resume, err := Park(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() { task.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop blocked on a parked task")
	}
	if task.Running() {
		t.Fatal("a stopped task reports running")
	}
	resume()
}

func TestTaskParkExpiresOnWedgedStep(t *testing.T) {
	task := NewTask("wedged")
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	task.Run(func(context.Context) (int, error) {
		once.Do(func() { close(entered); <-release })
		return 0, nil
	}, Idle{})
	defer task.Stop()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := Park(ctx, task); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Park on a wedged step: %v, want %v", err, context.DeadlineExceeded)
	}
	if !task.Running() {
		t.Fatal("an expired Park stopped the task")
	}
	close(release)
	resume, err := Park(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	resume()
}

func TestTaskParkNeverStarted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	stopped := NewTask("stopped")
	stopped.Run(idleStep, Idle{})
	stopped.Stop()
	resume, err := Park(ctx, NewTask("idle"), stopped)
	if err != nil {
		t.Fatalf("Park on tasks that are not running: %v", err)
	}
	resume()
}

// waitSource is work a Wait-form task sleeps on: offer adds one unit and
// wakes the waiter.
type waitSource struct {
	bell    chan struct{}
	backlog atomic.Int64
}

func newWaitSource() *waitSource { return &waitSource{bell: make(chan struct{}, 1)} }

func (s *waitSource) offer() {
	s.backlog.Add(1)
	select {
	case s.bell <- struct{}{}:
	default:
	}
}

func (s *waitSource) step(context.Context) (int, error) {
	if s.backlog.Load() > 0 {
		s.backlog.Add(-1)
		return 1, nil
	}
	return 0, nil
}

func (s *waitSource) wait(ctx context.Context) {
	select {
	case <-s.bell:
	case <-ctx.Done():
	}
}

// returns fails the test unless fn returns within two seconds.
func returns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestTaskWaitCountsSourceWakes: a Wait that the source ends counts as a
// bell wake; one that Park ends does not.
func TestTaskWaitCountsSourceWakes(t *testing.T) {
	src := newWaitSource()
	task := NewTask("wait")
	task.Run(src.step, Idle{Wait: src.wait})
	defer task.Stop()
	for i := uint64(1); i <= 5; i++ {
		waitFor(t, "a park", func() bool { return task.Stats().Parks == i })
		src.offer()
		waitFor(t, "the offered work", func() bool { return task.Stats().Work == i })
	}
	resume, err := Park(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	resume()
	if st := task.Stats(); st.BellWakes != 5 || st.TimerWakes != 0 {
		t.Fatalf("bell wakes %d, timer wakes %d, want 5 and 0", st.BellWakes, st.TimerWakes)
	}
}

// TestTaskWaitEndsOnPark: Park ends the Wait of an idle task, which then
// runs no step until resume, and Stop ends a waiting task promptly.
func TestTaskWaitEndsOnPark(t *testing.T) {
	src := newWaitSource()
	task := NewTask("wait")
	task.Run(src.step, Idle{Wait: src.wait})
	waitFor(t, "an idle wait", func() bool { return task.Stats().Parks == 1 })
	var resume func()
	returns(t, "Park of a waiting task", func() {
		var err error
		if resume, err = Park(context.Background(), task); err != nil {
			t.Error(err)
		}
	})
	if resume == nil {
		t.FailNow()
	}
	steps := task.Stats().Steps
	src.offer()
	time.Sleep(10 * time.Millisecond)
	if got := task.Stats().Steps; got != steps {
		t.Fatalf("a parked task ran %d steps", got-steps)
	}
	resume()
	waitFor(t, "the work offered while parked", func() bool { return task.Stats().Work == 1 })
	waitFor(t, "the next wait", func() bool { return task.Stats().Parks >= 2 })
	returns(t, "Stop of a waiting task", task.Stop)
}

// TestTaskWaitRacesParkAndStop: Park and Stop land while the task is on
// its way into Wait, and neither is lost.
func TestTaskWaitRacesParkAndStop(t *testing.T) {
	wait := func(ctx context.Context) { <-ctx.Done() }
	for i := 0; i < 50; i++ {
		task := NewTask("race")
		task.Run(idleStep, Idle{Wait: wait})
		returns(t, "Park racing the first Wait", func() {
			resume, err := Park(context.Background(), task)
			if err != nil {
				t.Error(err)
				return
			}
			resume()
		})
		returns(t, "Park racing a Wait after resume", func() {
			resume, err := Park(context.Background(), task)
			if err != nil {
				t.Error(err)
				return
			}
			resume()
		})
		returns(t, "Stop racing a Wait", task.Stop)
	}
}

// TestTaskWaitSurvivesExpiredPark: Park requests that expire, before or
// after the waiting task took them, leave it able to wait, to work and
// to park again.
func TestTaskWaitSurvivesExpiredPark(t *testing.T) {
	src := newWaitSource()
	task := NewTask("wait")
	task.Run(src.step, Idle{Wait: src.wait})
	defer task.Stop()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 20; i++ {
		// A task quick enough to park before Park sees ctx wins the race.
		if resume, err := Park(expired, task); err == nil {
			resume()
		} else if !errors.Is(err, context.Canceled) {
			t.Fatalf("Park on a cancelled ctx: %v", err)
		}
	}
	src.offer()
	waitFor(t, "work after expired Parks", func() bool { return task.Stats().Work == 1 })
	returns(t, "Park after expired Parks", func() {
		resume, err := Park(context.Background(), task)
		if err != nil {
			t.Error(err)
			return
		}
		resume()
	})
	src.offer()
	waitFor(t, "work after the Park", func() bool { return task.Stats().Work == 2 })
}
