package kernel

import (
	"fmt"

	"repro/internal/lottery"
	"repro/internal/random"
)

// Semaphore is a counting semaphore generalizing the mutex's wake
// policy: §6 observes that "a lottery can be used to allocate
// resources wherever queueing is necessary for resource access", and a
// semaphore guarding a pool of identical units is the canonical such
// queue. In lottery mode each released unit is granted to a waiter
// drawn with probability proportional to its funding; FIFO mode is the
// conventional baseline. (Unlike the mutex there is no inheritance
// ticket: with multiple unit holders there is no single thread to
// fund, and the paper defines inheritance only for mutexes.)
type Semaphore struct {
	k     *Kernel
	name  string
	mode  MutexMode
	src   random.Source
	units int
	wq    WaitQueue

	acquisitions uint64
}

// NewSemaphore creates a semaphore with the given number of units.
// src is used only in MutexLottery mode.
func (k *Kernel) NewSemaphore(name string, units int, mode MutexMode, src random.Source) *Semaphore {
	if units <= 0 {
		panic(fmt.Sprintf("kernel: semaphore %q with %d units", name, units))
	}
	if mode == MutexLottery && src == nil {
		panic("kernel: lottery semaphore needs a random source")
	}
	s := &Semaphore{k: k, name: name, mode: mode, src: src, units: units}
	s.wq.name = "sem:" + name
	return s
}

// Units returns the currently available units.
func (s *Semaphore) Units() int { return s.units }

// Waiters returns how many threads are blocked in Acquire.
func (s *Semaphore) Waiters() int { return s.wq.Len() }

// Acquisitions returns the total number of successful Acquires.
func (s *Semaphore) Acquisitions() uint64 { return s.acquisitions }

// Acquire takes one unit, blocking while none are available.
func (s *Semaphore) Acquire(ctx *Ctx) {
	if s.units > 0 {
		s.units--
		s.acquisitions++
		return
	}
	ctx.Block(&s.wq)
	// The releaser consumed the unit on our behalf (direct handoff):
	// nothing further to do.
	s.acquisitions++
}

// TryAcquire takes a unit without blocking; it reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.units > 0 {
		s.units--
		s.acquisitions++
		return true
	}
	return false
}

// Release returns one unit. If threads are waiting, the unit is
// handed directly to one of them, chosen per the semaphore mode.
func (s *Semaphore) Release() {
	if len(s.wq.waiters) == 0 {
		s.units++
		return
	}
	var next *Thread
	switch s.mode {
	case MutexFIFO:
		next = s.wq.waiters[0]
	case MutexLottery:
		next = drawWaiterByFunding(s.src, s.wq.waiters)
	}
	s.wq.WakeThread(next)
}

// Cond is a condition variable associated with a Mutex. Signal wakes
// one waiter — drawn by funding in lottery mode — and Broadcast wakes
// all; woken threads re-acquire the mutex before Wait returns, with
// the mutex's own policy arbitrating the reacquisition.
type Cond struct {
	k    *Kernel
	name string
	mode MutexMode
	src  random.Source
	m    *Mutex
	wq   WaitQueue
}

// NewCond creates a condition variable tied to m. src is used only in
// MutexLottery mode.
func (k *Kernel) NewCond(name string, m *Mutex, mode MutexMode, src random.Source) *Cond {
	if m == nil {
		panic("kernel: NewCond with nil mutex")
	}
	if mode == MutexLottery && src == nil {
		panic("kernel: lottery cond needs a random source")
	}
	c := &Cond{k: k, name: name, mode: mode, src: src, m: m}
	c.wq.name = "cond:" + name
	return c
}

// Waiters returns how many threads are blocked in Wait.
func (c *Cond) Waiters() int { return c.wq.Len() }

// Wait atomically releases the mutex and blocks until a Signal or
// Broadcast, then re-acquires the mutex. The caller must hold m.
func (c *Cond) Wait(ctx *Ctx) {
	if c.m.Owner() != ctx.t {
		panic("kernel: Cond.Wait without holding the mutex")
	}
	c.m.Unlock(ctx)
	ctx.Block(&c.wq)
	c.m.Lock(ctx)
}

// Signal wakes one waiter (no-op when none).
func (c *Cond) Signal() {
	if len(c.wq.waiters) == 0 {
		return
	}
	var next *Thread
	switch c.mode {
	case MutexFIFO:
		next = c.wq.waiters[0]
	case MutexLottery:
		next = drawWaiterByFunding(c.src, c.wq.waiters)
	}
	c.wq.WakeThread(next)
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() { c.wq.WakeAll() }

// drawWaiterByFunding holds a lottery over blocked threads weighted by
// their funding (valued as if competing).
func drawWaiterByFunding(src random.Source, ws []*Thread) *Thread {
	if len(ws) == 1 {
		return ws[0]
	}
	weights := make([]float64, len(ws))
	for i, w := range ws {
		weights[i] = w.holder.FundedValue()
	}
	if i, ok := lottery.Draw(src, weights); ok {
		return ws[i]
	}
	return ws[0]
}
