package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host-speed normalization.
//
// The reference machine is a shared 2-core VM. Its neighbours' load slows
// it by up to about 2x, in spells of seconds to minutes, so raw times of
// ten back-to-back runs of one workload spread up to 26%, and their
// medians move with the hour. So a run probes the host's speed with a
// fixed kernel that shares no code with the repository, with the workload
// paused: before, between and after its timed passes. It reports every
// time scaled by kernelRefMS over the mean of all its kernel runs: the
// time the work would have taken at the reference machine's quiet speed.
// A change to the program moves the work and leaves the kernel alone, so
// it shows in full; a change in host speed moves both and partly cancels.
// Raw values stay in the -out report.
//
// The mean, not the median: the host flips between a fast and a slow
// state, and the work pays for the time spent in each, while the median
// of the kernel runs jumps from one state to the other. README.md gives
// the spreads of raw, median-scaled and mean-scaled times over the same
// runs; the mean is the narrowest on most workloads and sets. Other
// kernels (a JSON round trip, tree allocation, the Go scanner, a
// cache-missing pointer walk) tracked the workloads worse.

// kernelRefMS is the speed kernel's mean duration on the reference
// machine while it was quiet, over 1400 kernel runs spread across ten
// runs.
const kernelRefMS = 3.04

// probeReps is how many kernel runs one probe makes.
const probeReps = 20

// kernelState is the speed kernel's fixed input, built on first use.
// The kernel itself allocates nothing, so it neither triggers nor pays
// for the garbage collection of the workload it sits between.
var kernelState struct {
	once  sync.Once
	keys  []int
	work  []int
	table map[int]int
	buf   []byte
}

const kernelKeys = 1 << 15

func initKernel() {
	k := &kernelState
	x := uint64(88172645463325252)
	k.keys = make([]int, kernelKeys)
	k.work = make([]int, kernelKeys)
	k.table = make(map[int]int, kernelKeys)
	for i := range k.keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.keys[i] = int(x >> 1)
		k.table[k.keys[i]&(kernelKeys-1)] = i
	}
	k.buf = make([]byte, 1<<16)
}

// kernelSink keeps the speed kernel's result live.
var kernelSink int

// speedKernel sorts 32K integers, makes 32K map lookups and hashes
// 256 KB, and returns how long that took.
func speedKernel() time.Duration {
	k := &kernelState
	k.once.Do(initKernel)
	t0 := time.Now()
	copy(k.work, k.keys)
	sort.Ints(k.work)
	s := k.work[0]
	for _, key := range k.keys {
		s += k.table[key&(kernelKeys-1)]
	}
	for i := 0; i < 4; i++ {
		sum := sha256.Sum256(k.buf)
		s += int(sum[i])
	}
	kernelSink = s
	return time.Since(t0)
}

// probe samples the host's current speed: probeReps kernel runs, kept
// in milliseconds. It first collects the workload's garbage, so no
// background marking competes with the kernel; that collection's CPU
// time stays the workload's, the kernel's is kept out of it.
func (rc *runCtx) probe() {
	runtime.GC()
	cpu := processCPU()
	for i := 0; i < probeReps; i++ {
		rc.out.Probes = append(rc.out.Probes, ms(speedKernel()))
	}
	rc.probeCPU += processCPU() - cpu
}

// hostFactor scales this run's raw times to reference speed.
func (rc *runCtx) hostFactor() float64 {
	sum := 0.0
	for _, p := range rc.out.Probes {
		sum += p
	}
	return kernelRefMS * float64(len(rc.out.Probes)) / sum
}
