package main

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"unsafe"
)

// counters reads the user-mode CPU cycles and instructions retired by the
// thread that opened them, through perf_event_open(2). The end-to-end
// metrics count instructions rather than time because a shared host moves
// both the clock and the instructions per cycle: within minutes the same
// inputs took up to 46% more wall time and 32% more cycles, while their
// instruction counts held within 3.5% (see bench/README.md). Cycles give
// the per-layer split.
//
// A nil *counters reads zero, for runs that measure nothing.
type counters struct {
	leader, member int // cycles (group leader) and instructions
	err            error
}

// sample is a cumulative reading.
type sample struct{ cycles, instructions uint64 }

func (a sample) sub(b sample) sample {
	return sample{a.cycles - b.cycles, a.instructions - b.instructions}
}

// perfAttr is struct perf_event_attr up to config1 (PERF_ATTR_SIZE_VER0).
type perfAttr struct {
	typ, size                                    uint32
	config, samplePeriod, sampleType, readFormat uint64
	flags                                        uint64
	wakeupEvents, bpType                         uint32
	config1                                      uint64
}

const (
	perfTypeHardware    = 0
	perfCountCycles     = 0
	perfCountInstrs     = 1
	perfExcludeKernel   = 1 << 5
	perfExcludeHV       = 1 << 6
	perfFormatEnabled   = 1 << 0
	perfFormatRunning   = 1 << 1
	perfFormatGroup     = 1 << 3
	perfGroupReadFormat = perfFormatEnabled | perfFormatRunning | perfFormatGroup
)

func perfOpen(config uint64, group int) (int, error) {
	attr := perfAttr{
		typ:        perfTypeHardware,
		config:     config,
		readFormat: perfGroupReadFormat,
		flags:      perfExcludeKernel | perfExcludeHV,
	}
	attr.size = uint32(unsafe.Sizeof(attr))
	// pid 0, cpu -1: this thread, on whichever CPU it runs.
	fd, _, errno := syscall.Syscall6(syscall.SYS_PERF_EVENT_OPEN,
		uintptr(unsafe.Pointer(&attr)), 0, ^uintptr(0), uintptr(group), 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// openCounters starts counting on the calling thread. The caller must
// hold the thread with runtime.LockOSThread for as long as it reads.
func openCounters() (*counters, error) {
	leader, err := perfOpen(perfCountCycles, -1)
	if err != nil {
		return nil, fmt.Errorf("bench: cycle counter: perf_event_open: %w (the benchmark needs user-mode hardware counters: perf_event_paranoid <= 2 and a PMU)", err)
	}
	member, err := perfOpen(perfCountInstrs, leader)
	if err != nil {
		syscall.Close(leader)
		return nil, fmt.Errorf("bench: instruction counter: perf_event_open: %w", err)
	}
	c := &counters{leader: leader, member: member}
	if _, err := c.read(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// read returns the counts so far. When the kernel shared the hardware
// counters with other events it scales them by enabled/running time, as
// perf stat does.
func (c *counters) read() (sample, error) {
	if c == nil {
		return sample{}, nil
	}
	// nr, time_enabled, time_running, cycles, instructions.
	var buf [5 * 8]byte
	n, err := syscall.Read(c.leader, buf[:])
	if err != nil {
		return sample{}, fmt.Errorf("bench: reading counters: %w", err)
	}
	if n != len(buf) {
		return sample{}, fmt.Errorf("bench: reading counters: %d of %d bytes", n, len(buf))
	}
	word := func(i int) uint64 { return binary.NativeEndian.Uint64(buf[8*i:]) }
	enabled, running := word(1), word(2)
	if running == 0 {
		return sample{}, fmt.Errorf("bench: the hardware counters never ran")
	}
	scale := func(v uint64) uint64 {
		if running == enabled {
			return v
		}
		return uint64(float64(v) * float64(enabled) / float64(running))
	}
	return sample{scale(word(3)), scale(word(4))}, nil
}

// now is read for the timed phase: it keeps the first error in c.err,
// which fails the run, and returns a zero sample in its place.
func (c *counters) now() sample {
	s, err := c.read()
	if err != nil && c.err == nil {
		c.err = err
	}
	return s
}

func (c *counters) close() {
	syscall.Close(c.member)
	syscall.Close(c.leader)
}
