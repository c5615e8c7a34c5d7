//go:build race

package router

// Poison overwrites every descriptor of a freed slab (buffers calls it in
// race builds only), so a packet used after its last Release fails a test
// instead of reading the frame the slab's next carve put there.
func (d descs) Poison() {
	for i := range d {
		d[i] = Packet{InPort: "released"}
	}
}
