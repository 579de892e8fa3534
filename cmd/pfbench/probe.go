package main

// On a shared host the speed of the cores, caches and memory drifts over
// minutes, and the workloads, whose working sets are tens of MB, drift by
// ±20% with it. Every run therefore also times a probe made of two
// fixed kernels, written here so that no change elsewhere in the
// repository alters them: an xorshift loop, which tracks core speed, and a
// pointer chase through a 32 MB random cycle, which tracks cache and
// memory latency. Scaling a run's times by each kernel's reference time
// over its median time in the run cancels most of the drift.
const (
	aluSteps   = 20_000_000
	chaseSlots = 1 << 23 // int32 slots: 32 MB
	chaseSteps = 400_000
	// aluRef and chaseRef are the kernels' typical times on a 2-vCPU Intel
	// Xeon (Sapphire Rapids, 105 MB L3) VM, so scaled times read as
	// seconds there.
	aluRef   = 0.043
	chaseRef = 0.058
)

type probe struct {
	next []int32
	at   int32
	x    uint64
}

func newProbe() *probe {
	next := make([]int32, chaseSlots)
	for i := range next {
		next[i] = int32(i)
	}
	// Sattolo's shuffle, driven by a fixed xorshift generator, leaves one
	// cycle through every slot.
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(next) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &probe{next: next, x: x}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run times both kernels once.
func (p *probe) run() (alu, chase float64) {
	x, at := p.x, p.at
	alu = seconds(func() {
		for n := 0; n < aluSteps; n++ {
			x = xorshift(x)
		}
	})
	chase = seconds(func() {
		for n := 0; n < chaseSteps; n++ {
			at = p.next[at]
		}
	})
	p.x, p.at = x, at
	return alu, chase
}
