package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// The host-noise reference: a fixed pointer chase over a buffer four
// times the L2 size, timed in the same process just before the
// workload. Pointer-rich simulation state behaves like this loop on a
// shared host, so a window where the probe is slow explains a slow
// workload rep. It is printed as a diagnostic and gated nowhere.
const (
	probeEntries = 4 << 20 // 16 MiB of uint32 links
	probeHops    = 2 << 20
)

// probeNSPerHop builds one random cycle over the buffer (Sattolo's
// algorithm with a fixed LCG, so every process chases the same cycle)
// and returns the mean host nanoseconds per dependent load. The buffer
// is mapped outside the Go heap and unmapped afterwards, and the
// process's peak-RSS mark is reset, so the probe shows in neither the
// workload's allocation counts nor its peak_rss_mb.
func probeNSPerHop() (float64, error) {
	buf, err := syscall.Mmap(-1, 0, probeEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return 0, err
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&buf[0])), probeEntries)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := probeEntries - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	p := uint32(0)
	t0 := time.Now()
	for h := 0; h < probeHops; h++ {
		p = next[p]
	}
	ns := float64(time.Since(t0).Nanoseconds()) / probeHops
	probeSink = p
	if err := syscall.Munmap(buf); err != nil {
		return 0, err
	}
	// "5" resets VmHWM to the current RSS (proc(5), clear_refs).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return 0, err
	}
	return ns, nil
}

// probeSink keeps the chase from being optimized away.
var probeSink uint32
