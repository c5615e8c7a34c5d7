package control

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"netkit/adapt"
	"netkit/cf"
	"netkit/core"
	"netkit/internal/osabs"
	"netkit/resources"
	"netkit/router"
)

// liveTaskNames asks the tasks verb for every listed task's name.
func liveTaskNames(t *testing.T, client *Client) []string {
	t.Helper()
	var stats []resources.TaskStats
	if err := client.Do(&Request{Op: "tasks"}, &stats); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(stats))
	for _, st := range stats {
		names = append(names, st.Name)
	}
	return names
}

// TestTasksVerbListsLiveTasks starts a capsule holding every kind of
// data-plane task owner — a NIC source, a Figure-3 composite (its link
// scheduler), a 2-lane sharded CF and an adaptation engine — and checks
// the tasks verb lists each running task by instance path, lists none
// once the capsule stops, and that stopping leaks no goroutine.
func TestTasksVerbListsLiveTasks(t *testing.T) {
	capsule := core.NewCapsule("tasks")
	fw, err := router.NewFramework(capsule, false)
	if err != nil {
		t.Fatal(err)
	}
	nic, err := osabs.NewNIC("eth0", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	src, err := router.NewNICSource(nic, nil)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := router.NewFigure3Composite(capsule, router.Figure3Config{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := router.NewShardedCF(capsule, router.ShardConfig{Shards: 2},
		func(shard int, sfw *cf.Framework) (string, error) {
			cnt := router.ShardName(shard, "cnt")
			if err := sfw.Admit(cnt, router.NewCounter()); err != nil {
				return "", err
			}
			_, err := sfw.Capsule().Bind(cnt, "out", router.ShardName(shard, "egress"), router.IPacketPushID)
			return cnt, err
		})
	if err != nil {
		t.Fatal(err)
	}
	eng := adapt.NewEngine(capsule, adapt.Options{Interval: 5 * time.Millisecond})
	for name, comp := range map[string]core.Component{
		"src": src, "gw": gw, "sharded": sharded, "sink": router.NewDropper(), "adapt": eng,
	} {
		if err := capsule.Insert(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range [][2]string{{"src", "gw"}, {"gw", "sharded"}, {"sharded", "sink"}} {
		if _, err := router.ConnectPush(capsule, b[0], "out", b[1]); err != nil {
			t.Fatal(err)
		}
	}
	client := serveFramework(t, fw)
	if names := liveTaskNames(t, client); len(names) != 0 {
		t.Fatalf("tasks before start: %v", names)
	}

	ctx := context.Background()
	before := runtime.NumGoroutine()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	names := liveTaskNames(t, client)
	for _, want := range []string{
		"adapt/adapt", "gw/sched/sched", "sharded/lane0", "sharded/lane1", "src/pump",
	} {
		if !slices.Contains(names, want) {
			t.Errorf("running capsule lists %v, missing %q", names, want)
		}
	}
	if len(names) != 5 {
		t.Errorf("running capsule lists %d tasks, want 5: %v", len(names), names)
	}

	if err := capsule.StopAll(ctx); err != nil {
		t.Fatal(err)
	}
	if names := liveTaskNames(t, client); len(names) != 0 {
		t.Fatalf("tasks after StopAll: %v", names)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after StopAll, %d before StartAll", n, before)
	}
}
