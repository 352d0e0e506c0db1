// Budget is the re-score driver's dynamic concurrency gate. PR 9's fixed
// semaphore became a watchdog actuator: when the serving SLO's fast burn
// fires, the watchdog halves the in-flight batch budget so background
// re-scoring stops competing with live traffic for the worker pool, and
// restores it when the alert clears. In-flight batches are never interrupted
// — a lowered limit only delays the next acquisition.
package rescore

import (
	"context"
	"sync"
)

// Budget is a counting semaphore whose limit can be changed while acquirers
// wait. Raising the limit admits waiting acquirers immediately; lowering it
// simply stops new acquisitions until enough releases bring usage under the
// new limit. Waiters are not served in any particular order: Run's batch
// loop is the one acquirer.
type Budget struct {
	mu    sync.Mutex
	limit int
	base  int
	inUse int
	wake  chan struct{} // closed and renewed whenever a slot may have opened
}

// NewBudget builds a budget with the given base limit (clamped to ≥ 1).
func NewBudget(limit int) *Budget {
	if limit < 1 {
		limit = 1
	}
	return &Budget{limit: limit, base: limit, wake: make(chan struct{})}
}

// Acquire blocks until a slot is free or ctx is cancelled.
func (b *Budget) Acquire(ctx context.Context) error {
	for {
		b.mu.Lock()
		if b.inUse < b.limit {
			b.inUse++
			b.mu.Unlock()
			return nil
		}
		wake := b.wake
		b.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Release returns a slot and wakes the waiters to retry.
func (b *Budget) Release() {
	b.mu.Lock()
	if b.inUse > 0 {
		b.inUse--
	}
	b.wakeLocked()
	b.mu.Unlock()
}

// wakeLocked wakes every waiting acquirer to recheck the limit. Caller
// holds b.mu.
func (b *Budget) wakeLocked() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// SetLimit changes the current limit (clamped to ≥ 1). Raising it wakes
// waiting acquirers; lowering it never interrupts in-flight work.
func (b *Budget) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	b.limit = n
	b.wakeLocked()
	b.mu.Unlock()
}

// Limit returns the current limit.
func (b *Budget) Limit() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.limit
}

// Base returns the limit the budget was created with — what SetLimit
// restores to when a throttle clears.
func (b *Budget) Base() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.base
}

// InUse returns the number of currently held slots.
func (b *Budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inUse
}
