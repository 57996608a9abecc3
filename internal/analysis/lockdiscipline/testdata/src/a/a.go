// Fixture for the lockdiscipline analyzer. Positive cases carry // want
// markers; everything else must stay silent.
package a

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// branchLeak locks, but only the error branch unlocks: the happy path
// returns with the mutex held. CFG-sensitive: the Unlock exists, just not
// on every path.
func (s *S) branchLeak(fail bool) int {
	s.mu.Lock() // want `Lock of "s\.mu" is not released on every path`
	if fail {
		s.mu.Unlock()
		return -1
	}
	return s.n
}

// branchOK unlocks on both paths: must not be reported.
func (s *S) branchOK(fail bool) int {
	s.mu.Lock()
	if fail {
		s.mu.Unlock()
		return -1
	}
	n := s.n
	s.mu.Unlock()
	return n
}

// deferOK is the canonical discharge: a deferred unlock covers every
// path, including early returns added later.
func (s *S) deferOK(fail bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fail {
		return -1
	}
	return s.n
}

// deferClosureOK discharges through a deferred closure.
func (s *S) deferClosureOK() int {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
	}()
	return s.n
}

// loopOK reacquires per iteration; the fixpoint must converge without a
// false positive.
func (s *S) loopOK(k int) int {
	t := 0
	for i := 0; i < k; i++ {
		s.mu.Lock()
		t += s.n
		s.mu.Unlock()
	}
	return t
}

// doubleUnlock releases twice on the same straight-line path.
func (s *S) doubleUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock() // want `Unlock of "s\.mu": no path to this statement holds the lock`
}

// unlockHelper only ever unlocks; lock handoff helpers are legal, so no
// diagnostic (the function never locks s.mu itself).
func (s *S) unlockHelper() {
	s.mu.Unlock()
}

// rwSplit pairs RLock with RUnlock; mixing the reader and writer sides is
// tracked separately, so the missing writer Unlock on the second branch
// is a leak.
func (s *S) rwSplit(w bool) int {
	if !w {
		s.rw.RLock()
		n := s.n
		s.rw.RUnlock()
		return n
	}
	s.rw.Lock() // want `Lock of "s\.rw" is not released on every path`
	s.n++
	s.rw.RUnlock() // want `RUnlock of "s\.rw": no path to this statement holds the lock`
	return s.n
}

// deferInLoop pyramids unlocks at function exit.
func (s *S) deferInLoop(k int) {
	for i := 0; i < k; i++ {
		s.mu.Lock()
		defer s.mu.Unlock() // want `defer of "s\.mu" Unlock inside a loop`
		s.n++
	}
}

// panicPathOK: the panic path may exit with the lock held (the process is
// dying); only normal returns are checked.
func (s *S) panicPathOK(bad bool) int {
	s.mu.Lock()
	if bad {
		panic("bad")
	}
	n := s.n
	s.mu.Unlock()
	return n
}

// handoffSuppressed documents a deliberate lock handoff.
func (s *S) handoffSuppressed() {
	//repro:lock-ok handed off to finishHandoff, which always runs
	s.mu.Lock()
	go s.finishHandoff()
}

func (s *S) finishHandoff() {
	s.n++
	s.mu.Unlock()
}

// litSeparate: a goroutine body is its own function; the unlock inside it
// does not discharge the spawner's obligation, and conversely the body's
// bare Unlock (paired with the spawner's Lock) is not a double unlock
// because the literal never locks.
func (s *S) litSeparate(done chan struct{}) {
	s.mu.Lock() // want `Lock of "s\.mu" is not released on every path`
	go func() {
		s.n++
		s.mu.Unlock()
		close(done)
	}()
}
