//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time the whole process has used, user and system,
// as the kernel accounts it: time the host lends other tenants, or the
// process waits to be scheduled, is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
