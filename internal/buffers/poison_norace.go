//go:build !race

package buffers

// poisonDescs is a no-op outside race builds (see poison_race.go).
func poisonDescs(*Buffer) {}
