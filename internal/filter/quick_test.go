package filter

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

// genNode builds a random AST of bounded depth from a seeded PRNG.
func genNode(rng *rand.Rand, depth int) Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(7) {
		case 0:
			v := 4
			if rng.Intn(2) == 0 {
				v = 6
			}
			return &VersionNode{V: v}
		case 1:
			return &ProtoNode{Proto: uint8(rng.Intn(256))}
		case 2:
			return &HostNode{Dir: Dir(1 + rng.Intn(2)), Addr: randAddr(rng)}
		case 3:
			bits := rng.Intn(33)
			pfx, _ := randAddr4(rng).Prefix(bits)
			return &NetNode{Dir: Dir(1 + rng.Intn(2)), Prefix: pfx}
		case 4:
			lo := uint16(rng.Intn(65536))
			hi := lo + uint16(rng.Intn(int(65535-lo)+1))
			return &PortNode{Dir: Dir(rng.Intn(3)), Lo: lo, Hi: hi}
		default:
			return &CmpNode{
				Field: NumField(1 + rng.Intn(3)),
				Op:    CmpOp(1 + rng.Intn(6)),
				Val:   rng.Intn(300),
			}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &AndNode{L: genNode(rng, depth-1), R: genNode(rng, depth-1)}
	case 1:
		return &OrNode{L: genNode(rng, depth-1), R: genNode(rng, depth-1)}
	default:
		return &NotNode{X: genNode(rng, depth-1)}
	}
}

func randAddr4(rng *rand.Rand) netip.Addr {
	var b [4]byte
	rng.Read(b[:])
	return netip.AddrFrom4(b)
}

func randAddr(rng *rand.Rand) netip.Addr {
	if rng.Intn(2) == 0 {
		return randAddr4(rng)
	}
	var b [16]byte
	rng.Read(b[:])
	return netip.AddrFrom16(b)
}

func randView(rng *rand.Rand) View {
	v := View{
		Version:  []int{0, 4, 6}[rng.Intn(3)],
		Proto:    uint8(rng.Intn(256)),
		SrcPort:  uint16(rng.Intn(65536)),
		DstPort:  uint16(rng.Intn(65536)),
		HasPorts: rng.Intn(2) == 0,
		TTL:      uint8(rng.Intn(256)),
		TOS:      uint8(rng.Intn(256)),
		Len:      rng.Intn(2000),
	}
	if v.Version == 4 {
		v.Src, v.Dst = randAddr4(rng), randAddr4(rng)
	} else if v.Version == 6 {
		var b [16]byte
		rng.Read(b[:])
		v.Src = netip.AddrFrom16(b)
		rng.Read(b[:])
		v.Dst = netip.AddrFrom16(b)
	}
	return v
}

// TestQuickClosureVMEquivalence: for random ASTs and random packet views,
// the closure oracle and the instruction VM agree. This pins the VM (the
// only product evaluator) to the reference semantics.
func TestQuickClosureVMEquivalence(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := genNode(rng, 4)
		c, err := closure(n)
		if err != nil {
			return false
		}
		p, err := CompileProgram(n)
		if err != nil {
			return false
		}
		for i := 0; i < 32; i++ {
			v := randView(rng)
			if c(&v) != p.Match(&v) {
				t.Logf("divergence on %s with view %+v", n, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRenderReparse: rendering a random AST and reparsing it yields an
// AST with identical matching behaviour (String() is a faithful syntax).
func TestQuickRenderReparse(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := genNode(rng, 3)
		n2, err := Parse(n.String())
		if err != nil {
			t.Logf("reparse of %q failed: %v", n.String(), err)
			return false
		}
		c1, err := closure(n)
		if err != nil {
			return false
		}
		c2, err := closure(n2)
		if err != nil {
			return false
		}
		for i := 0; i < 16; i++ {
			v := randView(rng)
			if c1(&v) != c2(&v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
