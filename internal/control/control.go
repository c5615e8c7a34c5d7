// Package control is netkitd's management plane: a JSON-lines protocol
// over TCP through which operators (and nkctl) exercise the reflective
// capabilities remotely. Every verb dispatches onto the unified netkit
// meta-space — architecture introspection and constraints, interface
// descriptor lookup, interception chains on live bindings, and resource
// accounting — plus the Router-CF conveniences (stats, filters,
// hot-swap). It demonstrates the paper's claim that a causally-connected
// runtime makes "deployment, inspection, (re)configuration, and
// evolution" uniform management operations rather than restart
// procedures.
package control

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netkit"
	"netkit/cf"
	"netkit/core"
	"netkit/resources"
	"netkit/router"
)

// Sentinel errors.
var (
	// ErrBadRequest indicates a malformed or unknown request.
	ErrBadRequest = errors.New("control: bad request")
	// ErrRemote wraps an error string reported by the server.
	ErrRemote = errors.New("control: server error")
)

// Request is one management operation.
type Request struct {
	Op string `json:"op"`

	Name       string            `json:"name,omitempty"`
	New        string            `json:"new,omitempty"`
	Type       string            `json:"type,omitempty"`
	Cfg        map[string]string `json:"cfg,omitempty"`
	Classifier string            `json:"classifier,omitempty"`
	Spec       string            `json:"spec,omitempty"`
	Output     string            `json:"output,omitempty"`
	Priority   int               `json:"priority,omitempty"`
	FilterID   uint64            `json:"filter_id,omitempty"`

	// Meta-space addressing: the client-side endpoint of a binding and
	// the name of an interceptor or interface on it.
	Component  string `json:"component,omitempty"`
	Receptacle string `json:"receptacle,omitempty"`
	Iface      string `json:"iface,omitempty"`

	// Watch parameters: sample count and inter-sample interval.
	Samples    int `json:"samples,omitempty"`
	IntervalMS int `json:"interval_ms,omitempty"`
}

// IfaceData is the payload of "iface": one interface descriptor.
type IfaceData struct {
	ID  core.InterfaceID `json:"id"`
	Doc string           `json:"doc,omitempty"`
	Ops []core.OpDesc    `json:"ops,omitempty"`
}

// AuditData is the payload of "audit": one remotely installed counting
// interceptor. Calls counts packets, not chain invocations: a "PushBatch"
// crossing contributes one count per packet it carries, and a "PullBatch"
// crossing one per packet it took, so an empty pull counts nothing; any
// other operation counts one.
type AuditData struct {
	Component  string `json:"component"`
	Receptacle string `json:"receptacle"`
	Calls      uint64 `json:"calls"`
}

// Response is the reply to one Request.
type Response struct {
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
}

// StatsData is the payload of "stats": the uniform stats tree — the whole
// capsule when no name was given, one component's subtree otherwise.
type StatsData struct {
	Tree core.StatNode `json:"tree"`
}

// WatchSample is one element of the "watch" payload.
type WatchSample struct {
	ElapsedMS int64         `json:"elapsed_ms"`
	Tree      core.StatNode `json:"tree"`
}

// Server exposes one framework — and its capsule's meta-space — over a
// listener.
type Server struct {
	fw   *cf.Framework
	meta *netkit.MetaSpace

	mu       sync.Mutex
	listener net.Listener
	wg       sync.WaitGroup
	closed   bool
	audits   map[string]*atomic.Uint64 // "component\x00receptacle" -> call count
}

// NewServer wraps a framework.
func NewServer(fw *cf.Framework) *Server {
	return &Server{
		fw:     fw,
		meta:   netkit.Meta(fw.Capsule()),
		audits: make(map[string]*atomic.Uint64),
	}
}

// Serve accepts connections until the listener closes. Call Close to stop.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				s.wg.Wait()
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		return l.Close()
	}
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := s.handle(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// handle dispatches one request.
func (s *Server) handle(req *Request) *Response {
	data, err := s.dispatch(req)
	if err != nil {
		return &Response{Error: err.Error()}
	}
	raw, err := json.Marshal(data)
	if err != nil {
		return &Response{Error: err.Error()}
	}
	return &Response{OK: true, Data: raw}
}

func (s *Server) dispatch(req *Request) (any, error) {
	capsule := s.fw.Capsule()
	switch req.Op {
	case "ping":
		return "pong", nil
	case "graph":
		return s.meta.Architecture().Snapshot(), nil
	case "validate":
		if err := s.meta.Architecture().Validate(); err != nil {
			return nil, err
		}
		return "valid", nil
	case "constraints":
		return s.meta.Architecture().Constraints(), nil
	case "dropped":
		return s.meta.Architecture().DroppedEvents(), nil
	case "ifaces":
		return s.meta.Interface().IDs(), nil
	case "iface":
		d, ok := s.meta.Interface().Lookup(core.InterfaceID(req.Iface))
		if !ok {
			return nil, fmt.Errorf("control: interface %q: %w", req.Iface, core.ErrNotFound)
		}
		return IfaceData{ID: d.ID, Doc: d.Doc, Ops: d.Ops}, nil
	case "provided":
		ids, err := s.meta.Interface().ProvidedBy(req.Component)
		if err != nil {
			return nil, err
		}
		return ids, nil
	case "intercept":
		return s.intercept(req.Component, req.Receptacle)
	case "unintercept":
		return s.unintercept(req.Component, req.Receptacle)
	case "chain":
		return s.meta.Interception().Chain(req.Component, req.Receptacle)
	case "audit":
		s.mu.Lock()
		cnt, ok := s.audits[req.Component+"\x00"+req.Receptacle]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("control: no audit at %s.%s: %w",
				req.Component, req.Receptacle, core.ErrNotFound)
		}
		return AuditData{Component: req.Component, Receptacle: req.Receptacle,
			Calls: cnt.Load()}, nil
	case "tasks":
		mgr := s.meta.Resources()
		names := mgr.Tasks()
		out := make([]resources.TaskStats, 0, len(names))
		for _, name := range names {
			t, err := mgr.Task(name)
			if err != nil {
				continue
			}
			out = append(out, t.Stats())
		}
		return liveTasks(out, capsule, ""), nil
	case "types":
		return capsule.ComponentRegistry().Types(), nil
	case "members":
		return s.fw.Members(), nil
	case "stats":
		tree, err := s.statsTree(req.Name)
		if err != nil {
			return nil, err
		}
		return StatsData{Tree: tree}, nil
	case "watch":
		return s.watch(req)
	case "swap":
		if req.Name == "" || req.New == "" || req.Type == "" {
			return nil, fmt.Errorf("control: swap needs name/new/type: %w", ErrBadRequest)
		}
		repl, err := capsule.ComponentRegistry().New(req.Type, req.Cfg)
		if err != nil {
			return nil, err
		}
		if err := router.HotSwap(capsule, req.Name, req.New, repl); err != nil {
			return nil, err
		}
		return "swapped", nil
	case "filter":
		cls, err := s.classifier(req.Classifier)
		if err != nil {
			return nil, err
		}
		id, err := cls.RegisterFilter(req.Spec, req.Priority, req.Output)
		if err != nil {
			return nil, err
		}
		return id, nil
	case "unfilter":
		cls, err := s.classifier(req.Classifier)
		if err != nil {
			return nil, err
		}
		if err := cls.UnregisterFilter(req.FilterID); err != nil {
			return nil, err
		}
		return "removed", nil
	default:
		return nil, fmt.Errorf("control: op %q: %w", req.Op, ErrBadRequest)
	}
}

// liveTasks appends the running tasks of c's components, recursing into
// composites, each named by its instance path: "src/pump" is the task
// "pump" of component "src", "gw/sched/sched" the task "sched" of the
// component "sched" inside composite "gw".
func liveTasks(out []resources.TaskStats, c *core.Capsule, prefix string) []resources.TaskStats {
	for _, name := range c.ComponentNames() {
		comp, _ := c.Component(name) // nil, and so neither, if removed meanwhile
		if o, ok := comp.(interface{ Tasks() []*resources.Task }); ok {
			for _, t := range o.Tasks() {
				if st := t.Stats(); st.Running {
					st.Name = prefix + name + "/" + st.Name
					out = append(out, st)
				}
			}
		}
		if ic, ok := comp.(interface{ Inner() *core.Capsule }); ok {
			out = liveTasks(out, ic.Inner(), prefix+name+"/")
		}
	}
	return out
}

// statsTree resolves the "stats"/"watch" subject: the capsule-wide tree
// when name is empty, one component's subtree otherwise — both through
// the stats meta-view, so nkctl sees exactly what the adaptation engine
// samples.
func (s *Server) statsTree(name string) (core.StatNode, error) {
	if name == "" {
		return s.meta.Stats().Tree(), nil
	}
	return s.meta.Stats().Component(name)
}

// watch samples the stats tree Samples times, IntervalMS apart, and
// returns the whole series in one response (the protocol is strictly
// request/response; streaming watches belong to a client-side loop).
// Bounds keep a typo from pinning a connection.
func (s *Server) watch(req *Request) (any, error) {
	samples := req.Samples
	if samples <= 0 {
		samples = 2
	}
	if samples > 100 {
		return nil, fmt.Errorf("control: watch samples %d > 100: %w", samples, ErrBadRequest)
	}
	interval := time.Duration(req.IntervalMS) * time.Millisecond
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if d := time.Duration(samples) * interval; d > 30*time.Second {
		return nil, fmt.Errorf("control: watch span %v > 30s: %w", d, ErrBadRequest)
	}
	start := time.Now()
	out := make([]WatchSample, 0, samples)
	for i := 0; i < samples; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		tree, err := s.statsTree(req.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, WatchSample{ElapsedMS: time.Since(start).Milliseconds(), Tree: tree})
	}
	return out, nil
}

// auditName is the interceptor name used by remotely installed audits.
const auditName = "control.audit"

// intercept installs a counting interceptor on the binding at the given
// client-side endpoint through the interception meta-model. The count is
// readable with the "audit" verb.
func (s *Server) intercept(component, receptacle string) (any, error) {
	cnt := new(atomic.Uint64)
	wrap := core.PrePost(nil, func(op string, args, results []any) {
		cnt.Add(uint64(router.PacketCount(op, args, results...)))
	})
	if err := s.meta.Interception().Install(component, receptacle, auditName, wrap); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.audits[component+"\x00"+receptacle] = cnt
	s.mu.Unlock()
	return "intercepting", nil
}

// unintercept removes a previously installed counting interceptor and
// returns its final call count.
func (s *Server) unintercept(component, receptacle string) (any, error) {
	if err := s.meta.Interception().Remove(component, receptacle, auditName); err != nil {
		return nil, err
	}
	key := component + "\x00" + receptacle
	s.mu.Lock()
	cnt := s.audits[key]
	delete(s.audits, key)
	s.mu.Unlock()
	var calls uint64
	if cnt != nil {
		calls = cnt.Load()
	}
	return AuditData{Component: component, Receptacle: receptacle, Calls: calls}, nil
}

func (s *Server) classifier(name string) (router.IClassifier, error) {
	comp, ok := s.fw.Capsule().Component(name)
	if !ok {
		return nil, fmt.Errorf("control: %q: %w", name, core.ErrNotFound)
	}
	impl, ok := comp.Provided(router.IClassifierID)
	if !ok {
		return nil, fmt.Errorf("control: %q is not a classifier: %w", name, ErrBadRequest)
	}
	cls, ok := impl.(router.IClassifier)
	if !ok {
		return nil, fmt.Errorf("control: %q: %w", name, core.ErrTypeMismatch)
	}
	return cls, nil
}

// Client is the nkctl side.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a control server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do performs one request, decoding the response payload into out (out may
// be nil to discard).
func (c *Client) Do(req *Request, out any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return fmt.Errorf("control: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return fmt.Errorf("control: recv: %w", err)
	}
	if !resp.OK {
		return fmt.Errorf("control: %s: %w", resp.Error, ErrRemote)
	}
	if out != nil && resp.Data != nil {
		if err := json.Unmarshal(resp.Data, out); err != nil {
			return fmt.Errorf("control: decode payload: %w", err)
		}
	}
	return nil
}
