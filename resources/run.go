package resources

import (
	"context"
	"runtime"
	"time"
)

// Idle is a Run task's idle policy: what its loop does after a step that
// found no work. A park either calls Wait, or sleeps on Bell and the
// Fallback timer.
type Idle struct {
	Spin int // empty steps that yield (runtime.Gosched) and step again before a park
	// Wait is the park of a task whose source can be waited on: it
	// returns once the source may have work or its ctx ends, which quit
	// and Park requests do. Bell and Fallback are unused with it.
	Wait     func(ctx context.Context)
	Arm      func() (timer bool) // runs before every park: it hands Bell to whatever rings it, and reports whether the park needs the Fallback timer
	Bell     <-chan struct{}     // wakes a park; nil = none
	Fallback time.Duration       // bounds a park (every park without Arm), on one reused timer; 0 = none
}

// Run starts step as the task's loop (see Start): the poll-and-park
// runner of every data-plane task. Each turn checks quit and a Park
// request without blocking, then steps; the step reports its work. After
// work it steps again. After an empty step it holds for a taken Park
// request, else spins within idle.Spin, else runs idle.Arm and parks: in
// idle.Wait, or until quit, idle.Bell, the idle.Fallback timer or a Park
// request. A step error ends the loop. TaskStats counts it all; a Wait
// that returns, not ended by quit or Park, counts as a bell wake.
func (t *Task) Run(step func(ctx context.Context) (work int, err error), idle Idle) {
	// One slot: Park leaves its request there and then ends the task's
	// Wait, so a request cannot be lost to a task that is entering Wait.
	fence := make(chan parkReq, 1)
	t.start(func(ctx context.Context) { t.loop(ctx, fence, step, idle) }, fence)
}

func (t *Task) loop(ctx context.Context, fence <-chan parkReq, step func(context.Context) (int, error), idle Idle) {
	quit := ctx.Done()
	var timer *time.Timer
	var tick <-chan time.Time // stays nil (never ready) without a fallback
	if idle.Fallback > 0 && idle.Wait == nil {
		timer = time.NewTimer(time.Hour)
		timer.Stop()
		tick = timer.C
	}
	var epoch context.Context // Wait's ctx, until quit or a Park request ends it
	spun := 0
	var req parkReq // a taken Park request, until it is honoured
	for {
		select {
		case <-quit:
			return
		default:
		}
		if req.parked == nil {
			select {
			case req = <-fence:
			default:
			}
		}
		// A request taken before this step is honoured only if the step
		// finds no work: work may have arrived since the last empty step.
		work, err := step(ctx)
		t.steps.Add(1)
		if err != nil {
			return
		}
		if work > 0 {
			t.work.Add(uint64(work))
			spun = 0
			continue
		}
		if req.parked != nil {
			req.parked <- struct{}{}
			select {
			case <-req.resume:
			case <-quit:
				return
			}
			req = parkReq{}
			continue
		}
		if spun < idle.Spin {
			spun++
			t.spins.Add(1)
			runtime.Gosched()
			continue
		}
		spun = 0
		armed := timer != nil
		if idle.Arm != nil {
			armed = idle.Arm() && armed
		}
		t.parks.Add(1)
		if idle.Wait != nil {
			if epoch == nil || epoch.Err() != nil {
				// Ended by quit, or by a Park request that is taken by
				// now or waits on fence.
				if req = t.renew(ctx, &epoch, fence); req.parked != nil {
					continue
				}
			}
			if idle.Wait(epoch); epoch.Err() == nil {
				t.bellWakes.Add(1)
			}
			continue
		}
		if armed {
			timer.Reset(idle.Fallback)
		}
		select {
		case <-quit:
			return
		case <-tick:
			t.timerWakes.Add(1)
			continue
		case <-idle.Bell:
			t.bellWakes.Add(1)
		case req = <-fence:
		}
		if armed && !timer.Stop() {
			<-tick // it fired as something else woke the task
		}
	}
}

// renew takes a Park request waiting on fence, or else starts a new
// epoch: a ctx under ctx that the next Park request ends. Park leaves
// its request on fence before it ends the epoch, and both sides hold
// epochMu, so a request is never left behind a fresh epoch.
func (t *Task) renew(ctx context.Context, epoch *context.Context, fence <-chan parkReq) (req parkReq) {
	t.epochMu.Lock()
	defer t.epochMu.Unlock()
	select {
	case req = <-fence:
	default:
		*epoch, t.endEpoch = context.WithCancel(ctx)
	}
	return req
}

// parkReq is one task's Park request: the task acknowledges on parked
// (buffered, so the send never blocks) and holds until resume closes.
type parkReq struct {
	parked chan struct{}
	resume <-chan struct{}
}

// Park holds each task at its park point, one after another, and returns
// the function that releases them all; call it once. A running Run task
// takes the request at its next turn or wake (Park ends its Wait) and
// parks after the next step that finds no work, so it has done all work
// offered before Park.
// It runs no step until resume, and Stop still ends it. A task that is
// not running counts as parked; one under Start has no park point, so
// Park waits for it to return. If ctx expires first, the tasks parked so
// far are released and ctx.Err() is returned.
func Park(ctx context.Context, tasks ...*Task) (resume func(), err error) {
	all := make(chan struct{})
	resume = func() { close(all) }
	for _, t := range tasks {
		t.run.Lock()
		fence, done := t.fence, t.done
		t.run.Unlock()
		req := parkReq{parked: make(chan struct{}, 1), resume: all}
		for parked := done == nil; !parked; {
			select {
			case fence <- req:
				fence = nil // queued: end its Wait, then wait for it to park
				t.epochMu.Lock()
				if t.endEpoch != nil {
					t.endEpoch()
				}
				t.epochMu.Unlock()
			case <-req.parked:
				parked = true
			case <-done:
				parked = true
			case <-ctx.Done():
				resume()
				return nil, ctx.Err()
			}
		}
	}
	return resume, nil
}
