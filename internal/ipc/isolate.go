package ipc

import (
	"context"
	"fmt"
	"net"

	"netkit/core"
	"netkit/resources"
)

// Isolate instantiates one component of typeName out-of-process-style
// behind a private transport (an in-process host over net.Pipe; the
// protocol is identical over TCP) and returns its local stand-in. The
// stand-in owns the transport and lists its tasks, ipc-reader and
// ipc-host: stopping it — the capsule calls Stop when the component is
// removed or the capsule stops — tears the host down with it. reg nil
// uses the process-wide registry, so every registered standard component
// type can be isolated by name.
func Isolate(name, typeName string, cfg map[string]string, reg *core.ComponentRegistry) (*RemoteComponent, error) {
	client, _, serve, cleanup := hostPair(reg)
	rc, err := client.Instantiate(name, typeName, cfg)
	if err != nil {
		cleanup()
		return nil, fmt.Errorf("ipc: isolate %q: %w", name, err)
	}
	rc.stop = cleanup
	rc.tasks = []*resources.Task{client.reader, serve}
	return rc, nil
}

// IsolateAt is Isolate against a remote host already serving at addr
// (e.g. `netkitd -ipc-host`): the real two-process deployment. The
// stand-in's one task is its ipc-reader; the host's run elsewhere.
func IsolateAt(name, typeName string, cfg map[string]string, addr string) (*RemoteComponent, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ipc: isolate %q at %s: %w", name, addr, err)
	}
	client := Dial(conn)
	rc, err := client.Instantiate(name, typeName, cfg)
	if err != nil {
		_ = client.Close()
		return nil, fmt.Errorf("ipc: isolate %q at %s: %w", name, addr, err)
	}
	rc.stop = func() { _ = client.Close() }
	rc.tasks = []*resources.Task{client.reader}
	return rc, nil
}

// ListenAndServe accepts connections on ln and serves one Host per conn
// against reg (nil = process-wide registry), each as an "ipc-host" task
// that ends when its connection closes. It returns when the listener
// closes. This is the `netkitd -ipc-host` entry point: a daemon willing
// to host isolated constituents for parent capsules elsewhere.
func ListenAndServe(ln net.Listener, reg *core.ComponentRegistry) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return err
		}
		resources.NewTask("ipc-host").Start(func(context.Context) { _ = NewHost(conn, reg).Serve() })
	}
}
