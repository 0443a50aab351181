package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time, user and system, this process has used. The
// process holds the client, every node and the coordinator, so this is
// what the whole deployment spends on the load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
