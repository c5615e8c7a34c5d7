package main

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"netkit/core"
	"netkit/internal/control"
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
