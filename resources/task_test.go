package resources

import (
	"context"
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
