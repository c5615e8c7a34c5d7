package adapt

import (
	"context"
	"testing"
	"time"

	"netkit/cf"
	"netkit/core"
	"netkit/router"
)

// buildShardedClassifiers inserts an n-shard CF named "plane" whose
// replicas are cached classifiers with both outputs wired to the shard
// egress.
func buildShardedClassifiers(t *testing.T, capsule *core.Capsule, n int) *router.ShardedCF {
	t.Helper()
	factory := func(shard int, fw *cf.Framework) (string, error) {
		name := router.ShardName(shard, "cls")
		cls, err := router.NewClassifier("a", "default")
		if err != nil {
			return "", err
		}
		if err := fw.Admit(name, cls); err != nil {
			return "", err
		}
		for _, out := range []string{"a", "default"} {
			if _, err := fw.Capsule().Bind(name, out, router.ShardName(shard, "egress"), router.IPacketPushID); err != nil {
				return "", err
			}
		}
		return name, nil
	}
	s, err := router.NewShardedCF(capsule, router.ShardConfig{Shards: n}, factory)
	if err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("plane", s); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("void", router.NewDropper()); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "plane", "out", "void"); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClosedLoopFlowCacheResize is the cache half of the reflective loop
// (mirroring TestClosedLoopQueueSwap for queues): a classifier with a
// deliberately undersized megaflow cache thrashes under flow-rich traffic;
// the adaptation engine — watching only the flowcache_hits/flowcache_misses
// counters in the stats tree — detects the sustained hit-rate collapse via
// HitRateBelow and regrows the cache through ResizeFlowCache. Afterwards
// the same traffic runs mostly from the cache, i.e. the loop actually
// fixed the regression it observed.
func TestClosedLoopFlowCacheResize(t *testing.T) {
	const (
		flows    = 512
		smallCap = 64
		grownCap = 1 << 14
	)
	capsule := core.NewCapsule("cacheloop")
	cls, err := router.NewClassifier("a", "default")
	if err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("cls", cls); err != nil {
		t.Fatal(err)
	}
	sinkA, sinkD := router.NewDropper(), router.NewDropper()
	if err := capsule.Insert("sa", sinkA); err != nil {
		t.Fatal(err)
	}
	if err := capsule.Insert("sd", sinkD); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "cls", "a", "sa"); err != nil {
		t.Fatal(err)
	}
	if _, err := router.ConnectPush(capsule, "cls", "default", "sd"); err != nil {
		t.Fatal(err)
	}
	// Cache-worthy rule table the traffic never matches: every packet takes
	// the default path, and the verdict cache is the only thing thrashing.
	for i := 0; i < 8; i++ {
		if _, err := cls.RegisterFilter("udp and src port 3000", 10, "a"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cls.FlowCacheResize(smallCap); err != nil {
		t.Fatal(err)
	}

	fired := make(chan Firing, 4)
	eng := NewEngine(capsule,
		Options{Interval: time.Millisecond, OnFire: func(f Firing) { fired <- f }},
		Rule{
			Name:    "cache-grow",
			When:    HitRateBelow("cls", 0.5, 50),
			Sustain: 2,
			Once:    true,
			Then:    ResizeFlowCache("cls", func(View) int { return grownCap }),
		})
	if err := capsule.Insert("adapt", eng); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := capsule.StartAll(ctx); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = capsule.Close(ctx) }()

	// Pre-build one packet per flow; rounds re-push the same flow set, so
	// a big-enough cache would serve every round after the first from
	// cached verdicts, while the small cache evicts every flow before its
	// next appearance (round-robin is LRU's worst case).
	mk := func(fl uint16) *router.Packet {
		return router.NewPacket(mkUDP(t, fl, 0))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		for fl := 0; fl < flows; fl++ {
			if err := push1(cls, mk(uint16(fl))); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case f := <-fired:
			if f.Err != "" {
				t.Fatalf("rule fired with error: %s", f.Err)
			}
			if f.Rule != "cache-grow" {
				t.Fatalf("unexpected rule %q fired", f.Rule)
			}
		default:
			if time.Now().After(deadline) {
				t.Fatal("cache-grow never fired under sustained thrash")
			}
			continue
		}
		break
	}

	// The meta-space now shows the grown cache...
	fc := cls.FlowCache()
	if fc == nil || fc.Cap() != grownCap {
		t.Fatalf("cache not regrown: %+v", fc)
	}
	// ...and the regression is actually gone: after one warm-up round, a
	// full round of the same flows is served (almost) entirely from cache.
	for fl := 0; fl < flows; fl++ {
		if err := push1(cls, mk(uint16(fl))); err != nil {
			t.Fatal(err)
		}
	}
	h0, _, _ := fc.Counters()
	for fl := 0; fl < flows; fl++ {
		if err := push1(cls, mk(uint16(fl))); err != nil {
			t.Fatal(err)
		}
	}
	h1, _, _ := fc.Counters()
	if gained := h1 - h0; gained < flows*9/10 {
		t.Fatalf("post-resize round hit only %d of %d lookups", gained, flows)
	}
	if got := eng.History(); len(got) != 1 {
		t.Fatalf("history = %+v, want exactly one firing", got)
	}
}

// TestShardFlowCacheActions exercises the fleet-wide action surface
// directly: ShardFlowCacheResize retunes every replica classifier of a
// sharded CF, FlushFlowCache empties a named cache, and both fail loudly
// on wrong targets.
func TestShardFlowCacheActions(t *testing.T) {
	capsule := core.NewCapsule("fleet")
	s := buildShardedClassifiers(t, capsule, 3)
	v := View{}
	if err := ShardFlowCacheResize("plane", "cls", func(View) int { return 256 })(context.Background(), capsule, v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Shards(); i++ {
		comp, _ := s.Inner().Component(router.ShardName(i, "cls"))
		fc := comp.(*router.Classifier).FlowCache()
		if fc == nil || fc.Cap() != 256 {
			t.Fatalf("shard %d cache not resized", i)
		}
	}
	if err := ShardFlowCacheResize("plane", "nosuch", func(View) int { return 1 })(context.Background(), capsule, v); err == nil {
		t.Fatal("unknown replica component accepted")
	}
	if err := ShardFlowCacheResize("nosuch", "cls", func(View) int { return 1 })(context.Background(), capsule, v); err == nil {
		t.Fatal("unknown CF accepted")
	}
	if err := FlushFlowCache("nosuch")(context.Background(), capsule, v); err == nil {
		t.Fatal("unknown component accepted by flush")
	}
	// A sharded CF is not itself flow-cached; the duck-typing must say so.
	if err := FlushFlowCache("plane")(context.Background(), capsule, v); err == nil {
		t.Fatal("non-cached component accepted by flush")
	}
}
