// Fixture for lockheld: blocking operations reachable between a
// mutex Lock and its Unlock are flagged; non-blocking shapes
// (select-with-default, TryLock, Cond.Wait, code after Unlock) are
// tolerated.
package lockheld

import (
	"context"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/pool"
)

type srv struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	ch   chan int
	wg   sync.WaitGroup
	log  *slog.Logger
}

// sendUnderLock blocks on a bare channel send with the mutex held.
func (s *srv) sendUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ch <- 1
}

// recvUnderLock blocks on a receive with a read lock held.
func (s *srv) recvUnderLock() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return <-s.ch
}

// selectUnderLock blocks in a select with no default case.
func (s *srv) selectUnderLock() {
	s.mu.Lock()
	select {
	case v := <-s.ch:
		_ = v
	case s.ch <- 2:
	}
	s.mu.Unlock()
}

// waitAndIO piles four more blocking shapes into one critical section.
func (s *srv) waitAndIO(g *pool.Group) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait()
	s.log.Info("held", "key", 1)
	time.Sleep(time.Millisecond)
	if _, err := os.ReadFile("x"); err != nil {
		return err
	}
	return g.Submit(func(ctx context.Context) error { return nil })
}

// nonBlocking shapes are tolerated: TryLock opens no region, a select
// with a default sheds instead of waiting, and after Unlock nothing
// is held.
func (s *srv) nonBlocking() bool {
	if !s.mu.TryLock() {
		return false
	}
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
	s.ch <- 2
	return true
}

// condWait is the sanctioned wait-under-lock: Cond.Wait releases the
// very mutex it guards while it sleeps.
func (s *srv) condWait() {
	s.mu.Lock()
	for len(s.ch) == 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// explicitUnlock closes the region mid-body; the send after it is
// clean.
func (s *srv) explicitUnlock() {
	s.mu.Lock()
	n := len(s.ch)
	s.mu.Unlock()
	if n == 0 {
		s.ch <- 4
	}
}

// suppressed carries a reasoned ignore.
func (s *srv) suppressed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	//lint:ignore lockheld fixture: deliberate send under lock
	s.ch <- 3
}

// noteLocked is a "...Locked" helper: its caller holds s.mu, so the
// whole body is a held region even though it never calls Lock.
func (s *srv) noteLocked() {
	s.log.Info("note")
	s.ch <- 5
	go func() { s.ch <- 6 }() // runs elsewhere, after the lock is gone
}

// countLocked only computes and assigns under the caller's lock.
func (s *srv) countLocked() int {
	return len(s.ch)
}
