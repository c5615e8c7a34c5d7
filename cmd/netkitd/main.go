// Command netkitd is the NETKIT router daemon: it loads a .nk
// configuration into a Router CF, starts the components, optionally drives
// synthetic traffic into a named component, and serves the reflective
// control protocol for nkctl.
//
// Usage:
//
//	netkitd -config router.nk -listen 127.0.0.1:7341 \
//	        -traffic-into cnt -pps 1000 -duration 10s
//
// With -io udp the daemon skips the .nk configuration and runs the real
// packet plane instead: one or more SO_REUSEPORT UDP receive queues
// (recvmmsg-batched on Linux) pump frames through a sharded Router CF —
// counter -> checksum-validator lanes, fused at bind time — and out
// through a sendmmsg-batched UDP sink aimed at -udp-peer. Without a
// peer the plane terminates in a dropper, which still counts: a
// receive-side echo target for another netkitd. All device counters
// (frames per syscall, batch fill, kernel socket drops) appear under the
// source/sink components in `nkctl stats`.
//
//	netkitd -io udp -udp-listen 127.0.0.1:9101 -udp-peer 127.0.0.1:9102
//
// With -adapt the daemon arms the reflective adaptation loop: every FIFO
// queue in the configuration gains a rule that hot-swaps it for a RED
// queue (state migrated, no packet lost) when its occupancy stays above
// 85% — decided purely from the capsule's stats tree, the same view
// `nkctl stats` serves.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"netkit"
	"netkit/adapt"
	"netkit/cf"
	"netkit/core"
	"netkit/internal/control"
	"netkit/internal/ipc"
	"netkit/internal/nkconfig"
	"netkit/internal/osabs"
	"netkit/internal/trace"
	"netkit/resources"
	"netkit/router"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netkitd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		configPath  = flag.String("config", "", "path to .nk configuration (required unless -io udp)")
		ioMode      = flag.String("io", "config", `packet I/O mode: "config" loads -config, "udp" runs the real UDP forwarding plane`)
		udpListen   = flag.String("udp-listen", "127.0.0.1:0", "UDP plane receive address")
		udpPeer     = flag.String("udp-peer", "", "UDP plane forwarding destination (empty = count and drop)")
		udpQueues   = flag.Int("udp-queues", 1, "SO_REUSEPORT receive queues (Linux; 1 elsewhere)")
		udpBatch    = flag.Int("udp-batch", osabs.DefaultUDPBatch, "frames per batched syscall")
		udpSpin     = flag.Int("udp-busypoll", 0, "busy-poll spin budget: empty polls burned before a pump parks")
		udpShards   = flag.Int("udp-shards", 0, "data-plane lanes (default = receive queues)")
		listen      = flag.String("listen", "127.0.0.1:7341", "control protocol address")
		trafficInto = flag.String("traffic-into", "", "component to push synthetic traffic into")
		pps         = flag.Int("pps", 1000, "synthetic traffic rate (packets/sec)")
		flows       = flag.Int("flows", 64, "synthetic flow population")
		seed        = flag.Uint64("seed", 1, "traffic generator seed")
		duration    = flag.Duration("duration", 0, "run time (0 = until interrupted)")
		strict      = flag.Bool("strict-trust", false, "enforce out-of-process isolation for untrusted components")
		adaptLoop   = flag.Bool("adapt", false, "run the reflective adaptation loop (FIFO->RED swap on sustained queue occupancy)")
		ipcHost     = flag.String("ipc-host", "", "serve isolated component hosting on this TCP address (parents connect with ipc.IsolateAt)")
	)
	flag.Parse()

	capsule := core.NewCapsule("netkitd")
	fw, err := router.NewFramework(capsule, *strict)
	if err != nil {
		return err
	}
	switch *ioMode {
	case "udp":
		closeDevices, err := buildUDPPlane(fw, udpPlaneConfig{
			listen: *udpListen, peer: *udpPeer,
			queues: *udpQueues, batch: *udpBatch, spin: *udpSpin, shards: *udpShards,
		})
		if err != nil {
			return err
		}
		// Runs after the StopAll defer below (LIFO): pumps are joined
		// first, then the sockets close.
		defer closeDevices()
	case "config":
		if *configPath == "" {
			return fmt.Errorf("-config is required")
		}
		src, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		if _, err := nkconfig.Load(string(src), fw); err != nil {
			return err
		}
	default:
		return fmt.Errorf("-io %q: want \"config\" or \"udp\"", *ioMode)
	}
	meta := netkit.Meta(capsule)
	if err := meta.Architecture().Validate(); err != nil {
		return err
	}
	if *ipcHost != "" {
		// Host isolated constituents for remote parents: each accepted
		// connection gets a private capsule served over the batched ipc
		// protocol, instantiating through the process-wide registry (every
		// standard router component type registers there).
		ipcLn, err := net.Listen("tcp", *ipcHost)
		if err != nil {
			return fmt.Errorf("ipc-host listen: %w", err)
		}
		defer func() { _ = ipcLn.Close() }()
		go func() { _ = ipc.ListenAndServe(ipcLn, nil) }()
		fmt.Printf("netkitd: hosting isolated components on %s\n", ipcLn.Addr())
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		return err
	}
	defer func() { _ = capsule.StopAll(ctx) }()
	origin := *configPath
	if *ioMode == "udp" {
		origin = "the -io udp plane"
	}
	fmt.Printf("netkitd: %d components started from %s\n",
		len(capsule.ComponentNames()), origin)

	// Optional reflective loop: one rule per FIFO queue in the loaded
	// configuration, swapping it for a RED queue (state migrated) when
	// occupancy stays above 85% — the E13 policy, driven purely by the
	// stats tree. Firings are logged so operators can correlate them with
	// `nkctl stats` output.
	if *adaptLoop {
		var rules []adapt.Rule
		for _, name := range capsule.ComponentNames() {
			comp, ok := capsule.Component(name)
			if !ok {
				continue
			}
			q, ok := comp.(*router.FIFOQueue)
			if !ok {
				continue
			}
			name := name
			capQ := q.Capacity()
			rules = append(rules, adapt.Rule{
				Name:    "fifo-to-red:" + name,
				When:    adapt.GaugeAbove(name, "queue_occupancy", 0.85),
				Sustain: 4,
				Once:    true,
				Then: adapt.Swap(name, name+"-red", func() (core.Component, error) {
					return router.NewREDQueue(router.REDConfig{
						Capacity: capQ,
						MinTh:    float64(capQ) / 4,
						MaxTh:    float64(capQ) * 3 / 4,
						MaxP:     0.1,
					})
				}),
			})
		}
		eng := adapt.NewEngine(capsule, adapt.Options{
			Interval: 50 * time.Millisecond,
			OnFire: func(f adapt.Firing) {
				if f.Err != "" {
					fmt.Printf("netkitd: adapt: rule %s failed: %s\n", f.Rule, f.Err)
					return
				}
				fmt.Printf("netkitd: adapt: rule %s fired (tick %d)\n", f.Rule, f.Tick)
			},
		}, rules...)
		if err := capsule.Insert("adapt", eng); err != nil {
			return err
		}
		if err := capsule.StartComponent(ctx, "adapt"); err != nil {
			return err
		}
		fmt.Printf("netkitd: adaptation loop armed (%d rules)\n", len(rules))
	}

	// Control plane.
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := control.NewServer(fw)
	go func() { _ = srv.Serve(l) }()
	defer func() { _ = srv.Close() }()
	fmt.Printf("netkitd: control protocol on %s\n", l.Addr())

	// Optional synthetic traffic pump.
	if *trafficInto != "" {
		if *pps <= 0 {
			return fmt.Errorf("-pps %d: want a rate above 0", *pps)
		}
		push, err := netkit.Service[router.IPacketPush](capsule, *trafficInto, router.IPacketPushID)
		if err != nil {
			return fmt.Errorf("traffic target: %w", err)
		}
		gen, err := trace.NewGenerator(trace.Config{Seed: *seed, Flows: *flows})
		if err != nil {
			return err
		}
		// The pump is a task on the capsule's resources meta-model, shown
		// by `nkctl tasks`: each step pushes the packets due by now.
		pumpTask, err := meta.Resources().CreateTask(resources.TaskSpec{Name: "traffic-pump"})
		if err != nil {
			return err
		}
		interval := max(time.Second/time.Duration(*pps), time.Nanosecond)
		due := time.Now()
		pumpTask.Run(func(context.Context) (int, error) {
			for now := time.Now(); !due.After(now); due = due.Add(interval) {
				if raw, err := gen.Next(); err == nil {
					_ = push.PushBatch([]*router.Packet{router.NewPacket(raw)})
				}
			}
			return 0, nil
		}, resources.Idle{Fallback: interval})
		defer pumpTask.Stop()
		fmt.Printf("netkitd: driving %d pps into %q\n", *pps, *trafficInto)
	}

	// Wait for signal or duration.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	if *duration > 0 {
		select {
		case <-sig:
		case <-time.After(*duration):
		}
	} else {
		<-sig
	}
	fmt.Println("netkitd: shutting down")
	return nil
}

// udpPlaneConfig parameterises the -io udp forwarding plane.
type udpPlaneConfig struct {
	listen, peer                string
	queues, batch, spin, shards int
}

// buildUDPPlane assembles the real packet plane inside fw's capsule:
// arena-backed SO_REUSEPORT receive queues -> per-queue NICSource pumps
// -> RSS-sharded counter->validator lanes (fused at bind time) -> a
// batched UDP sink (or a dropper when no peer is configured). It returns
// a closer for the devices, to run after the capsule stops.
func buildUDPPlane(fw *cf.Framework, cfg udpPlaneConfig) (func(), error) {
	if cfg.queues <= 0 {
		cfg.queues = 1
	}
	if cfg.batch <= 0 {
		cfg.batch = osabs.DefaultUDPBatch
	}
	if cfg.shards <= 0 {
		cfg.shards = cfg.queues
	}
	arena, err := osabs.NewFrameArena(osabs.DefaultUDPFrameSize, cfg.batch, cfg.queues*8)
	if err != nil {
		return nil, err
	}
	group, err := osabs.NewUDPDeviceGroup(osabs.UDPConfig{
		Name: "udp0", Listen: cfg.listen, Batch: cfg.batch, Arena: arena,
	}, cfg.queues)
	if err != nil {
		return nil, err
	}
	var devices []*osabs.UDPDevice
	devices = append(devices, group...)
	closeAll := func() {
		for _, d := range devices {
			_ = d.Close()
		}
	}
	fail := func(err error) (func(), error) {
		closeAll()
		return nil, err
	}

	capsule := fw.Capsule()
	replica := func(shard int, sfw *cf.Framework) (string, error) {
		cnt := router.ShardName(shard, "cnt")
		val := router.ShardName(shard, "val")
		if err := sfw.Admit(cnt, router.NewCounter()); err != nil {
			return "", err
		}
		if err := sfw.Admit(val, router.NewChecksumValidator()); err != nil {
			return "", err
		}
		if _, err := sfw.Capsule().Bind(cnt, "out", val, router.IPacketPushID); err != nil {
			return "", err
		}
		if _, err := sfw.Capsule().Bind(val, "out",
			router.ShardName(shard, "egress"), router.IPacketPushID); err != nil {
			return "", err
		}
		return cnt, nil
	}
	plane, err := router.NewShardedCF(capsule,
		router.ShardConfig{Shards: cfg.shards, LatencyHistogram: true}, replica)
	if err != nil {
		return fail(err)
	}
	if err := capsule.Insert("plane", plane); err != nil {
		return fail(err)
	}

	for i, dev := range group {
		src, err := router.NewNICSourcePump(dev, nil,
			router.PumpConfig{Batch: cfg.batch, Spin: cfg.spin})
		if err != nil {
			return fail(err)
		}
		name := fmt.Sprintf("udp-src-q%d", i)
		if err := fw.Admit(name, src); err != nil {
			return fail(err)
		}
		if _, err := capsule.Bind(name, "out", "plane", router.IPacketPushID); err != nil {
			return fail(err)
		}
	}

	if cfg.peer != "" {
		tx, err := osabs.NewUDPDevice(osabs.UDPConfig{
			Name: "udp-tx", Listen: "127.0.0.1:0", Peer: cfg.peer, Batch: cfg.batch,
		})
		if err != nil {
			return fail(err)
		}
		devices = append(devices, tx)
		snk, err := router.NewNICSink(tx)
		if err != nil {
			return fail(err)
		}
		if err := fw.Admit("udp-sink", snk); err != nil {
			return fail(err)
		}
	} else {
		if err := fw.Admit("udp-sink", router.NewDropper()); err != nil {
			return fail(err)
		}
	}
	if _, err := capsule.Bind("plane", "out", "udp-sink", router.IPacketPushID); err != nil {
		return fail(err)
	}

	fmt.Printf("netkitd: udp plane on %s (%d queue(s), batch %d, %d lane(s)",
		group[0].LocalAddr(), cfg.queues, cfg.batch, cfg.shards)
	if cfg.peer != "" {
		fmt.Printf(", forwarding to %s)\n", cfg.peer)
	} else {
		fmt.Printf(", terminating in a dropper)\n")
	}
	return closeAll, nil
}
