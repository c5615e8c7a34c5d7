//go:build !linux

package netkit

import "time"

var cpuEpoch = time.Now()

// threadCPU falls back to the monotonic wall clock where no per-thread
// CPU clock is wired up; E17's gate skips on these platforms anyway.
func threadCPU() time.Duration { return time.Since(cpuEpoch) }
