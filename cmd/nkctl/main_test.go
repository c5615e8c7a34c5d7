package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"netkit/cf"
	"netkit/core"
	"netkit/internal/control"
	"netkit/internal/ipc"
	"netkit/internal/osabs"
	"netkit/router"
)

// serve starts a control server over a two-component Router CF
// (cnt -> cls) on a loopback port and returns its address.
func serve(t *testing.T) string {
	t.Helper()
	capsule := core.NewCapsule("nkctl-test")
	fw, err := router.NewFramework(capsule, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("cnt", router.NewCounter()); err != nil {
		t.Fatal(err)
	}
	cls, err := router.NewClassifier("a", "default")
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("cls", cls); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "cnt", "out", "cls"); err != nil {
		t.Fatal(err)
	}
	return listen(t, fw)
}

// listen starts a control server over fw on a loopback port and returns
// its address.
func listen(t *testing.T, fw *cf.Framework) string {
	t.Helper()
	srv := control.NewServer(fw)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String()
}

// TestRunVerbs drives the CLI's verbs, in order, against one live server:
// what each prints on success and which error a bad invocation returns.
func TestRunVerbs(t *testing.T) {
	addr := serve(t)
	for _, tc := range []struct {
		args    []string
		want    string // substring of the output
		wantErr string // substring of the error; "" = success
	}{
		{args: []string{"ping"}, want: "pong\n"},
		{args: []string{"graph"}, want: "capsule nkctl-test: 2 components, 1 bindings"},
		{args: []string{"graph"}, want: "cnt.out -> cls (" + string(router.IPacketPushID) + ")"},
		{args: []string{"filter", "cls", "udp and dst port 53", "a", "7"}, want: "filter 1 installed\n"},
		{args: []string{"unfilter", "cls", "1"}, want: ""},
		{args: []string{"unfilter", "cls", "1"}, wantErr: "1"}, // already gone: the server's error comes back
		{args: []string{"unfilter", "cls", "one"}, wantErr: `bad filter id "one"`},
		{args: []string{"filter", "cls"}, wantErr: "usage: nkctl filter"},
		{args: []string{"filter", "cls", "udp and", "a"}, wantErr: "syntax error"}, // the parser's position reaches the user
		{args: []string{"stats", "a", "b"}, wantErr: "usage: nkctl stats"},
		{args: []string{"frobnicate"}, wantErr: `unknown command "frobnicate"`},
		{args: nil, wantErr: "no command"},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-addr", addr}, tc.args...), &out)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("nkctl %v: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("nkctl %v: error %v, want one containing %q", tc.args, err, tc.wantErr)
		case !strings.Contains(out.String(), tc.want):
			t.Errorf("nkctl %v printed %q, want it to contain %q", tc.args, out.String(), tc.want)
		}
	}
}

// TestRunFilterShowsInStats: `nkctl stats` prints the whole stats tree as
// one JSON document, and what `filter` / `unfilter` did to the classifier
// is readable from it.
func TestRunFilterShowsInStats(t *testing.T) {
	addr := serve(t)
	filters := func() float64 {
		t.Helper()
		var out bytes.Buffer
		if err := run([]string{"-addr", addr, "stats"}, &out); err != nil {
			t.Fatal(err)
		}
		var tree core.StatNode
		if err := json.Unmarshal(out.Bytes(), &tree); err != nil {
			t.Fatalf("stats output is not a StatNode: %v\n%s", err, out.String())
		}
		if _, ok := tree.Find("cnt"); !ok {
			t.Fatalf("stats tree lacks cnt: %s", out.String())
		}
		cls, ok := tree.Find("cls")
		if !ok {
			t.Fatalf("stats tree lacks cls: %s", out.String())
		}
		st, ok := cls.Stat("classifier_filters")
		if !ok {
			t.Fatalf("cls lacks classifier_filters: %s", out.String())
		}
		return st.Value
	}
	for _, step := range []struct {
		args []string
		want float64
	}{
		{[]string{"filter", "cls", "udp", "a"}, 1},
		{[]string{"unfilter", "cls", "1"}, 0},
	} {
		if err := run(append([]string{"-addr", addr}, step.args...), &bytes.Buffer{}); err != nil {
			t.Fatalf("nkctl %v: %v", step.args, err)
		}
		if got := filters(); got != step.want {
			t.Fatalf("after nkctl %v: classifier_filters = %v, want %v", step.args, got, step.want)
		}
	}
}

// TestRunInterceptVerbs drives intercept, chain, audit and unintercept
// over a queue→scheduler pull binding: the audit reads the packets the
// scheduler pulled, however many rounds it ran.
func TestRunInterceptVerbs(t *testing.T) {
	capsule := core.NewCapsule("nkctl-pull")
	fw, err := router.NewFramework(capsule, false)
	if err != nil {
		t.Fatal(err)
	}
	q, err := router.NewFIFOQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := router.NewLinkScheduler(router.PolicyDRR)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.AddInput("in", 1500, 0); err != nil {
		t.Fatal(err)
	}
	for name, comp := range map[string]core.Component{"q": q, "sched": sched, "sink": router.NewDropper()} {
		if err := fw.Admit(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := router.ConnectPull(capsule, "sched", "in", "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "sched", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	addr := listen(t, fw)
	nkctl := func(args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(append([]string{"-addr", addr}, args...), &out); err != nil {
			t.Fatalf("nkctl %v: %v", args, err)
		}
		return out.String()
	}
	if got := nkctl("intercept", "sched", "in"); got != "intercepting sched.in\n" {
		t.Fatalf("intercept printed %q", got)
	}
	if got := nkctl("chain", "sched", "in"); got != "control.audit\n" {
		t.Fatalf("chain printed %q, want control.audit", got)
	}
	for i := 0; i < 20; i++ {
		if err := q.PushBatch([]*router.Packet{router.NewPacket(make([]byte, 100))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ { // one draining round, four idle ones
		sched.RunOnce(64)
	}
	if got := nkctl("audit", "sched", "in"); got != "sched.in: 20 calls\n" {
		t.Fatalf("audit printed %q, want the 20 packets pulled", got)
	}
	if got := nkctl("unintercept", "sched", "in"); got != "sched.in: 20 calls\n" {
		t.Fatalf("unintercept printed %q, want the final count of 20", got)
	}
	if got := nkctl("chain", "sched", "in"); got != "" {
		t.Fatalf("chain after unintercept printed %q", got)
	}
}

// TestRunTasksListsComponentTasks: `nkctl tasks` lists the running tasks
// of a served capsule's components by instance path — here a NIC
// source's receive pump and a link scheduler's service pump.
func TestRunTasksListsComponentTasks(t *testing.T) {
	capsule := core.NewCapsule("nkctl-tasks")
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
	q, err := router.NewFIFOQueue(64)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := router.NewLinkScheduler(router.PolicyDRR)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.AddInput("in", 1500, 0); err != nil {
		t.Fatal(err)
	}
	for name, comp := range map[string]core.Component{
		"src": src, "q": q, "sched": sched, "sink": router.NewDropper(),
	} {
		if err := fw.Admit(name, comp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := router.ConnectPush(capsule, "src", "out", "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPull(capsule, "sched", "in", "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "sched", "out", "sink"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = capsule.StopAll(ctx) })
	var out bytes.Buffer
	if err := run([]string{"-addr", listen(t, fw), "tasks"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"src/pump ", "sched/sched "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("nkctl tasks printed %q, want a line for %q", out.String(), want)
		}
	}
}

// TestRunTasksListsIsolatedTransport: an isolated component's stand-in
// owns its transport, so `nkctl tasks` lists that transport's client
// reader and in-process host serve loop under the component's name, and
// neither once the capsule stops.
func TestRunTasksListsIsolatedTransport(t *testing.T) {
	capsule := core.NewCapsule("nkctl-iso")
	fw, err := router.NewFramework(capsule, false)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := ipc.Isolate("iso", router.TypeCounter, nil, capsule.ComponentRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Admit("iso", iso); err != nil {
		_ = iso.Stop(context.Background())
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	addr := listen(t, fw)
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "tasks"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"iso/ipc-reader ", "iso/ipc-host "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("nkctl tasks printed %q, want a line for %q", out.String(), want)
		}
	}
	if err := capsule.StopAll(ctx); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-addr", addr, "tasks"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "iso/") {
		t.Errorf("nkctl tasks after StopAll printed %q", out.String())
	}
}

// TestRunDialFailure: an unreachable daemon is an error, not a hang.
func TestRunDialFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	if err := run([]string{"-addr", addr, "ping"}, &bytes.Buffer{}); err == nil {
		t.Fatal("ping against a closed port succeeded")
	}
}
