//go:build race

package buffers

// poisonDescs overwrites a freed slab's descriptors, in race builds only,
// so a packet used after its last Release reads poison instead of another
// batch's packet once the slab is carved again.
func poisonDescs(b *Buffer) {
	if d, ok := b.descs.(interface{ Poison() }); ok {
		d.Poison()
	}
}
