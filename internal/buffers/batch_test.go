package buffers

import "testing"

// TestBatchPoolGetPutAllocatesNothing pins the pool's steady state: a
// Get/Put round trip reuses both the batch and the box it is parked in.
func TestBatchPoolGetPutAllocatesNothing(t *testing.T) {
	bp := NewBatchPool[*int](8)
	x := new(int)
	if n := testing.AllocsPerRun(1000, func() {
		b := bp.Get()
		b = append(b, x)
		bp.Put(b)
	}); n != 0 {
		t.Fatalf("Get+Put allocates %v times per round trip", n)
	}
}

// TestBatchPoolRecyclesCleared: a recycled batch comes back empty, with
// its capacity, and pinning none of the elements it carried.
func TestBatchPoolRecyclesCleared(t *testing.T) {
	bp := NewBatchPool[*int](4)
	b := bp.Get()
	if len(b) != 0 || cap(b) < 4 {
		t.Fatalf("fresh batch len %d cap %d, want 0 and >= 4", len(b), cap(b))
	}
	for i := 0; i < 6; i++ { // outgrows the configured capacity
		b = append(b, new(int))
	}
	bp.Put(b)
	got := bp.Get()
	if len(got) != 0 {
		t.Fatalf("recycled batch len %d, want 0", len(got))
	}
	for i, e := range got[:cap(got)] {
		if e != nil {
			t.Fatalf("recycled batch pins element %d", i)
		}
	}
	bp.Put(nil) // a zero-capacity batch is not worth a box
	if b := bp.Get(); cap(b) < 4 {
		t.Fatalf("batch after Put(nil) has cap %d", cap(b))
	}
}
