// ipv4router: the paper's Figure 3 end to end — a composite gateway
// component (protocol recogniser, IPv4/IPv6 header processors, per-version
// queues, DRR link scheduler, internal controller) admitted into a Router
// CF, fed by a simulated NIC and drained to another, under live IMIX
// traffic, then reconfigured while forwarding.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"netkit"
	"netkit/core"
	"netkit/internal/osabs"
	"netkit/internal/trace"
	"netkit/router"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ipv4router:", err)
		os.Exit(1)
	}
}

func run() error {
	capsule := core.NewCapsule("ipv4router")
	fw, err := router.NewFramework(capsule, false)
	if err != nil {
		return err
	}

	// Devices (stratum 1).
	inNIC, err := osabs.NewNIC("eth0", 1024, 1024)
	if err != nil {
		return err
	}
	outNIC, err := osabs.NewNIC("eth1", 1024, 4096)
	if err != nil {
		return err
	}

	// Components: NIC source -> Figure-3 composite -> NIC sink. Everything
	// is admitted through the CF so the §5 rules are enforced.
	src, err := router.NewNICSource(inNIC, nil)
	if err != nil {
		return err
	}
	gw, err := router.NewFigure3Composite(capsule, router.Figure3Config{
		QueueCapacity:   512,
		SchedulerPolicy: router.PolicyDRR,
		QuantumV4:       3000, // IPv4 gets 2x the IPv6 service
		QuantumV6:       1500,
	})
	if err != nil {
		return err
	}
	snk, err := router.NewNICSink(outNIC)
	if err != nil {
		return err
	}
	for name, comp := range map[string]core.Component{"src": src, "gw": gw, "snk": snk} {
		if err := fw.Admit(name, comp); err != nil {
			return err
		}
	}
	if _, err := router.ConnectPush(capsule, "src", "out", "gw"); err != nil {
		return err
	}
	if _, err := router.ConnectPush(capsule, "gw", "out", "snk"); err != nil {
		return err
	}

	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		return err
	}
	defer func() { _ = capsule.StopAll(ctx) }()

	// Drive mixed v4/v6 IMIX traffic through the wire side.
	gen, err := trace.NewGenerator(trace.Config{Seed: 42, Flows: 128, V6Share: 25})
	if err != nil {
		return err
	}
	const nPkts = 20000
	injected := 0
	for i := 0; i < nPkts; i++ {
		raw, err := gen.Next()
		if err != nil {
			return err
		}
		if inNIC.Inject(raw) == nil {
			injected++
		}
		if i%512 == 511 {
			// Let the pumps drain the rings: a burst that outran the
			// scheduler would overflow the 512-slot queues.
			collect(outNIC, uint64(injected), 0, time.Second)
		}
	}
	// Let the pipeline drain: collect the wire until it has stayed empty
	// for a settle window, or the deadline passes.
	collect(outNIC, uint64(injected), 50*time.Millisecond, 2*time.Second)
	forwarded := outNIC.Stats().TxFrames

	fmt.Printf("injected %d packets, forwarded %d (nic drops in=%d out=%d)\n",
		injected, forwarded, inNIC.Stats().RxDrops, outNIC.Stats().TxDrops)

	// Reconfigure the composite live: swap the IPv4 queue for a bigger one
	// with state migration.
	inner := gw.Inner()
	bigger, err := router.NewFIFOQueue(2048)
	if err != nil {
		return err
	}
	if err := router.HotSwap(inner, "queue-v4", "queue-v4-big", bigger); err != nil {
		return err
	}
	fmt.Println("live-reconfigured: queue-v4 -> queue-v4-big (2048 slots, state migrated)")
	if err := netkit.Meta(inner).Architecture().Validate(); err != nil {
		return fmt.Errorf("architecture invalid after reconfig: %w", err)
	}
	fmt.Println("inner architecture still validates")
	return nil
}

// collect drains nic's transmitted frames off the wire until want frames
// have been sent and the wire has stayed empty for settle, or until limit
// passes.
func collect(nic *osabs.NIC, want uint64, settle, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for quiet := time.Now(); time.Now().Before(deadline); {
		if _, err := nic.DrainTx(); err == nil {
			quiet = time.Now()
			continue
		}
		if nic.Stats().TxFrames >= want && time.Since(quiet) >= settle {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}
