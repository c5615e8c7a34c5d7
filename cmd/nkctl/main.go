// Command nkctl is the operator CLI for a running netkitd: it exercises
// the reflective control protocol — architecture inspection, per-component
// stats, filter management, and live component hot-swap.
//
// Usage:
//
//	nkctl [-addr host:port] graph
//	nkctl validate | constraints | dropped
//	nkctl stats [component]                      # uniform stats tree, JSON
//	nkctl watch [component] [samples] [interval] # sampled series, JSON
//	nkctl members
//	nkctl types
//	nkctl ifaces
//	nkctl iface <interface-id>
//	nkctl provided <component>
//	nkctl intercept <component> <receptacle>
//	nkctl audit <component> <receptacle>
//	nkctl chain <component> <receptacle>
//	nkctl unintercept <component> <receptacle>
//	nkctl tasks
//	nkctl filter <classifier> "<spec>" <output> [priority]
//	nkctl unfilter <classifier> <filter-id>
//	nkctl swap <old> <new> <type> [key=value ...]
//	nkctl ping
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"netkit/core"
	"netkit/internal/control"
	"netkit/resources"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nkctl:", err)
		os.Exit(1)
	}
}

// run executes one nkctl invocation: args are the command line after the
// program name, out receives everything a successful command prints.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7341", "netkitd control address")
	_ = fs.Parse(args) // ExitOnError: Parse does not return an error
	args = fs.Args()
	if len(args) == 0 {
		return fmt.Errorf("no command; see -h")
	}
	client, err := control.Dial(*addr)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	switch args[0] {
	case "ping":
		var pong string
		if err := client.Do(&control.Request{Op: "ping"}, &pong); err != nil {
			return err
		}
		fmt.Fprintln(out, pong)
		return nil
	case "graph":
		var g core.Graph
		if err := client.Do(&control.Request{Op: "graph"}, &g); err != nil {
			return err
		}
		printGraph(out, &g)
		return nil
	case "members", "types", "constraints", "ifaces":
		var list []string
		if err := client.Do(&control.Request{Op: args[0]}, &list); err != nil {
			return err
		}
		for _, m := range list {
			fmt.Fprintln(out, m)
		}
		return nil
	case "validate":
		var verdict string
		if err := client.Do(&control.Request{Op: "validate"}, &verdict); err != nil {
			return err
		}
		fmt.Fprintln(out, verdict)
		return nil
	case "dropped":
		var n uint64
		if err := client.Do(&control.Request{Op: "dropped"}, &n); err != nil {
			return err
		}
		fmt.Fprintf(out, "dropped events: %d\n", n)
		return nil
	case "iface":
		if len(args) != 2 {
			return fmt.Errorf("usage: nkctl iface <interface-id>")
		}
		var d control.IfaceData
		if err := client.Do(&control.Request{Op: "iface", Iface: args[1]}, &d); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s — %s\n", d.ID, d.Doc)
		for _, op := range d.Ops {
			fmt.Fprintf(out, "  %s(%d) -> %d  %s\n", op.Name, op.NumIn, op.NumOut, op.Doc)
		}
		return nil
	case "provided":
		if len(args) != 2 {
			return fmt.Errorf("usage: nkctl provided <component>")
		}
		var ids []string
		if err := client.Do(&control.Request{Op: "provided", Component: args[1]}, &ids); err != nil {
			return err
		}
		for _, id := range ids {
			fmt.Fprintln(out, id)
		}
		return nil
	case "intercept", "chain":
		if len(args) != 3 {
			return fmt.Errorf("usage: nkctl %s <component> <receptacle>", args[0])
		}
		req := &control.Request{Op: args[0], Component: args[1], Receptacle: args[2]}
		if args[0] == "intercept" {
			var ack string
			if err := client.Do(req, &ack); err != nil {
				return err
			}
			fmt.Fprintf(out, "%s %s.%s\n", ack, args[1], args[2])
			return nil
		}
		var names []string
		if err := client.Do(req, &names); err != nil {
			return err
		}
		for _, n := range names {
			fmt.Fprintln(out, n)
		}
		return nil
	case "audit", "unintercept":
		if len(args) != 3 {
			return fmt.Errorf("usage: nkctl %s <component> <receptacle>", args[0])
		}
		var ad control.AuditData
		if err := client.Do(&control.Request{
			Op: args[0], Component: args[1], Receptacle: args[2],
		}, &ad); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s.%s: %d calls\n", ad.Component, ad.Receptacle, ad.Calls)
		return nil
	case "tasks":
		var stats []resources.TaskStats
		if err := client.Do(&control.Request{Op: "tasks"}, &stats); err != nil {
			return err
		}
		for _, t := range stats {
			fmt.Fprintf(out, "%-16s running=%v steps=%d work=%d spins=%d bell_wakes=%d timer_wakes=%d parks=%d jobs=%d busy=%v mem=%d peak=%d rejected=%d\n",
				t.Name, t.Running, t.Steps, t.Work, t.Spins, t.BellWakes, t.TimerWakes, t.Parks,
				t.Jobs, time.Duration(t.BusyNanos), t.MemUsed, t.MemPeak, t.Rejected)
		}
		return nil
	case "stats":
		if len(args) > 2 {
			return fmt.Errorf("usage: nkctl stats [component]")
		}
		req := &control.Request{Op: "stats"}
		if len(args) == 2 {
			req.Name = args[1]
		}
		var sd control.StatsData
		if err := client.Do(req, &sd); err != nil {
			return err
		}
		return printJSON(out, sd.Tree)
	case "watch":
		// nkctl watch [component] [samples] [interval-ms]: server-side
		// sampled series of the stats tree, printed as one JSON array.
		req := &control.Request{Op: "watch", Samples: 5, IntervalMS: 200}
		rest := args[1:]
		if len(rest) > 0 {
			if _, err := strconv.Atoi(rest[0]); err != nil {
				req.Name = rest[0]
				rest = rest[1:]
			}
		}
		if len(rest) > 0 {
			v, err := strconv.Atoi(rest[0])
			if err != nil {
				return fmt.Errorf("bad sample count %q: %w", rest[0], err)
			}
			req.Samples = v
			rest = rest[1:]
		}
		if len(rest) > 0 {
			v, err := strconv.Atoi(rest[0])
			if err != nil {
				return fmt.Errorf("bad interval %q: %w", rest[0], err)
			}
			req.IntervalMS = v
		}
		var samples []control.WatchSample
		if err := client.Do(req, &samples); err != nil {
			return err
		}
		return printJSON(out, samples)
	case "filter":
		if len(args) < 4 || len(args) > 5 {
			return fmt.Errorf("usage: nkctl filter <classifier> <spec> <output> [priority]")
		}
		req := &control.Request{
			Op: "filter", Classifier: args[1], Spec: args[2], Output: args[3],
		}
		if len(args) == 5 {
			p, err := strconv.Atoi(args[4])
			if err != nil {
				return fmt.Errorf("bad priority %q: %w", args[4], err)
			}
			req.Priority = p
		}
		var id uint64
		if err := client.Do(req, &id); err != nil {
			return err
		}
		fmt.Fprintf(out, "filter %d installed\n", id)
		return nil
	case "unfilter":
		if len(args) != 3 {
			return fmt.Errorf("usage: nkctl unfilter <classifier> <filter-id>")
		}
		id, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			return fmt.Errorf("bad filter id %q: %w", args[2], err)
		}
		return client.Do(&control.Request{Op: "unfilter", Classifier: args[1], FilterID: id}, nil)
	case "swap":
		if len(args) < 4 {
			return fmt.Errorf("usage: nkctl swap <old> <new> <type> [key=value ...]")
		}
		cfg := map[string]string{}
		for _, kv := range args[4:] {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad config %q", kv)
			}
			cfg[parts[0]] = parts[1]
		}
		err := client.Do(&control.Request{
			Op: "swap", Name: args[1], New: args[2], Type: args[3], Cfg: cfg,
		}, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "swapped %s -> %s (%s)\n", args[1], args[2], args[3])
		return nil
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}

// printJSON writes v to out as indented JSON: the machine-readable
// mirror of the stats meta-view, consumable by dashboards and scripts.
func printJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printGraph(out io.Writer, g *core.Graph) {
	fmt.Fprintf(out, "capsule %s: %d components, %d bindings\n", g.Capsule, len(g.Nodes), len(g.Edges))
	for _, n := range g.Nodes {
		state := "stopped"
		if n.Started {
			state = "started"
		}
		fmt.Fprintf(out, "  %-16s %-36s %s\n", n.Name, n.Type, state)
		for _, r := range n.Receptacles {
			bound := "unbound"
			if r.Bound {
				bound = "bound"
			}
			fmt.Fprintf(out, "    .%-14s %-28s %s\n", r.Name, r.Iface, bound)
		}
	}
	for _, e := range g.Edges {
		ic := ""
		if len(e.Interceptors) > 0 {
			ic = fmt.Sprintf("  [interceptors: %s]", strings.Join(e.Interceptors, ","))
		}
		fmt.Fprintf(out, "  #%d %s.%s -> %s (%s)%s\n", e.ID, e.From, e.Receptacle, e.To, e.Iface, ic)
	}
}
