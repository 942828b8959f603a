//go:build !linux

package main

import "time"

// processCPU is unavailable off Linux; callers fall back to wall time.
func processCPU() (time.Duration, bool) { return 0, false }
