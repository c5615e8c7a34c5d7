package buffers

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func newTestPool(t *testing.T) *Pool {
	t.Helper()
	p, err := NewPool([]int{64, 256, 1024}, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(nil, 8, 0); err == nil {
		t.Fatal("want error for no classes")
	}
	if _, err := NewPool([]int{256, 128}, 8, 0); err == nil {
		t.Fatal("want error for descending classes")
	}
	if _, err := NewPool([]int{128, 128}, 8, 0); err == nil {
		t.Fatal("want error for duplicate classes")
	}
	if p, err := NewPool([]int{64}, 0, 0); err != nil || p == nil {
		t.Fatalf("depth defaulting failed: %v", err)
	}
}

func TestGetRoundsUpToClass(t *testing.T) {
	p := newTestPool(t)
	cases := []struct{ req, wantCap int }{
		{1, 64}, {64, 64}, {65, 256}, {256, 256}, {1000, 1024}, {1024, 1024},
	}
	for _, tc := range cases {
		b, err := p.Get(tc.req)
		if err != nil {
			t.Fatalf("Get(%d): %v", tc.req, err)
		}
		if b.Cap() != tc.wantCap {
			t.Fatalf("Get(%d) cap = %d, want %d", tc.req, b.Cap(), tc.wantCap)
		}
		if b.Len() != tc.req {
			t.Fatalf("Get(%d) len = %d", tc.req, b.Len())
		}
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGetTooLarge(t *testing.T) {
	p := newTestPool(t)
	_, err := p.Get(4096)
	if !errors.Is(err, ErrBufferTooLarge) {
		t.Fatalf("want ErrBufferTooLarge, got %v", err)
	}
	if p.Stats().Failures != 1 {
		t.Fatalf("failures = %d", p.Stats().Failures)
	}
}

func TestReuseAfterRelease(t *testing.T) {
	p := newTestPool(t)
	b1, err := p.Get(50)
	if err != nil {
		t.Fatal(err)
	}
	if err := b1.Release(); err != nil {
		t.Fatal(err)
	}
	b2, err := p.Get(50)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("buffer not reused from free list")
	}
	s := p.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (second Get should hit)", s.Misses)
	}
}

func TestDoubleReleaseDetected(t *testing.T) {
	p := newTestPool(t)
	b, err := p.Get(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(); !errors.Is(err, ErrDoubleRelease) {
		t.Fatalf("want ErrDoubleRelease, got %v", err)
	}
	if live := p.Stats().Live; live != 0 {
		t.Fatalf("live = %d after double release", live)
	}
}

func TestRetainRelease(t *testing.T) {
	p := newTestPool(t)
	b, err := p.Get(10)
	if err != nil {
		t.Fatal(err)
	}
	b.Retain()
	if b.Refs() != 2 {
		t.Fatalf("refs = %d", b.Refs())
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Live != 1 {
		t.Fatal("buffer freed while a reference remained")
	}
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Live != 0 {
		t.Fatal("buffer not freed at zero refs")
	}
}

func TestMaxLiveEnforced(t *testing.T) {
	p, err := NewPool([]int{64}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(1); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if err := b1.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(1); err != nil {
		t.Fatalf("Get after release: %v", err)
	}
}

func TestCopyFromAndBytes(t *testing.T) {
	p := newTestPool(t)
	b, err := p.Get(64)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("hello packet")
	if n := b.CopyFrom(payload); n != len(payload) {
		t.Fatalf("copied %d", n)
	}
	if !bytes.Equal(b.Bytes(), payload) {
		t.Fatalf("bytes = %q", b.Bytes())
	}
	// CopyFrom larger than capacity truncates at capacity.
	big := make([]byte, 100)
	if n := b.CopyFrom(big); n != 64 {
		t.Fatalf("truncated copy = %d, want 64", n)
	}
}

func TestSetLenBounds(t *testing.T) {
	p := newTestPool(t)
	b, err := p.Get(10)
	if err != nil {
		t.Fatal(err)
	}
	b.SetLen(64)
	if b.Len() != 64 {
		t.Fatalf("len = %d", b.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range SetLen")
		}
	}()
	b.SetLen(65)
}

func TestStatsAccounting(t *testing.T) {
	p := newTestPool(t)
	var bufs []*Buffer
	for i := 0; i < 5; i++ {
		b, err := p.Get(100)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	s := p.Stats()
	if s.Gets != 5 || s.Live != 5 {
		t.Fatalf("stats = %+v", s)
	}
	for _, b := range bufs {
		if err := b.Release(); err != nil {
			t.Fatal(err)
		}
	}
	s = p.Stats()
	if s.Puts != 5 || s.Live != 0 {
		t.Fatalf("stats after release = %+v", s)
	}
}

func TestClassesCopied(t *testing.T) {
	p := newTestPool(t)
	cls := p.Classes()
	cls[0] = 9999
	if p.Classes()[0] == 9999 {
		t.Fatal("Classes() exposed internal slice")
	}
}

func TestConcurrentGetRelease(t *testing.T) {
	p := MustNewPool(DefaultClasses, 32, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b, err := p.Get(64 + i%1024)
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				b.Retain()
				if err := b.Release(); err != nil {
					t.Errorf("release: %v", err)
					return
				}
				if err := b.Release(); err != nil {
					t.Errorf("release2: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if live := p.Stats().Live; live != 0 {
		t.Fatalf("leak: live = %d", live)
	}
}

// Property: for any sequence of get sizes within range, live count equals
// gets minus releases at every prefix, and every buffer's capacity is the
// smallest class that fits.
func TestQuickPoolInvariants(t *testing.T) {
	classes := []int{32, 128, 512}
	check := func(sizes []uint16) bool {
		p := MustNewPool(classes, 4, 0)
		var live []*Buffer
		for _, s := range sizes {
			size := int(s)%512 + 1
			b, err := p.Get(size)
			if err != nil {
				return false
			}
			want := 0
			for _, c := range classes {
				if size <= c {
					want = c
					break
				}
			}
			if b.Cap() != want {
				return false
			}
			live = append(live, b)
			if p.Stats().Live != int64(len(live)) {
				return false
			}
		}
		for i, b := range live {
			if err := b.Release(); err != nil {
				return false
			}
			if p.Stats().Live != int64(len(live)-i-1) {
				return false
			}
		}
		return p.Stats().Live == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestKeepDescsBound: a buffer keeps a descriptor array only up to one
// descriptor per minimum-size frame (68 B) it can hold, and keeps it
// across recycles.
func TestKeepDescsBound(t *testing.T) {
	p := MustNewPool([]int{4096}, 1, 0)
	b, err := p.Get(4096)
	if err != nil {
		t.Fatal(err)
	}
	b.KeepDescs(make([]int, 61), 61)
	if b.Descs() != nil {
		t.Fatal("4 KiB buffer kept 61 descriptors, past its bound of 60")
	}
	b.KeepDescs(make([]int, 60), 60)
	if err := b.Release(); err != nil {
		t.Fatal(err)
	}
	again, err := p.Get(4096)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := again.Descs().([]int); again != b || len(d) != 60 {
		t.Fatal("60 descriptors did not stay with the recycled 4 KiB buffer")
	}
}
