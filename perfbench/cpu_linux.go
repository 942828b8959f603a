package main

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the CPU time of every thread of the process, read live
// from CLOCK_PROCESS_CPUTIME_ID. Linux leaves time stolen by the
// hypervisor out of it, so on a shared host it measures the process's own
// work.
func processCPU() (time.Duration, bool) {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
