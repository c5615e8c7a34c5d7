package netkit

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the CPU time the calling OS thread has consumed, read
// from CLOCK_THREAD_CPUTIME_ID (getrusage's RUSAGE_THREAD figures only
// advance at scheduler ticks, too coarse for a sub-millisecond burst).
// The caller holds runtime.LockOSThread across the two readings it
// subtracts. Unlike the wall clock, the difference does not grow while
// the thread is descheduled, so a timing gate read from it survives other
// test binaries competing for the same cores.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // EINVAL only: the clock exists since Linux 2.6.12
	}
	return time.Duration(ts.Nano())
}
