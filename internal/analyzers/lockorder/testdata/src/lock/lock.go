package lock

import (
	"sync"

	"hafw/internal/transport"
)

type S struct {
	mu sync.Mutex
	c  chan int
}

func (s *S) LeakOnReturn(cond bool) {
	s.mu.Lock() // want `s\.mu\.Lock\(\) is not released on every return path`
	if cond {
		return
	}
	s.mu.Unlock()
}

func (s *S) SendWhileHeld() {
	s.mu.Lock()
	s.c <- 1 // want `channel send while s\.mu is held`
	s.mu.Unlock()
}

func (s *S) RecvWhileHeld() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.c // want `channel receive while s\.mu is held`
}

func (s *S) SelectWhileHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want `select while s\.mu is held`
	case v := <-s.c:
		_ = v
	default:
	}
}

func (s *S) TransportWhileHeld(c *transport.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Send(nil) // want `transport call Send while s\.mu is held`
}

func (s *S) DialWhileHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = transport.Dial("addr") // want `transport call Dial while s\.mu is held`
}

func (s *S) Clean() {
	s.mu.Lock()
	defer s.mu.Unlock()
}

func (s *S) UnlockBeforeSend() {
	s.mu.Lock()
	s.mu.Unlock()
	s.c <- 1
}

func (s *S) TryLockIsUntracked() {
	if s.mu.TryLock() {
		s.c <- 1
		s.mu.Unlock()
	}
}

func (s *S) SuppressedSend() {
	s.mu.Lock()
	s.c <- 1 //nolint:hafw/lockorder // test fixture: buffered channel sized to the member count
	s.mu.Unlock()
}

type R struct {
	mu sync.RWMutex
}

func (r *R) ReadLeak(cond bool) int {
	r.mu.RLock() // want `r\.mu\.RLock\(\) is not released on every return path`
	if cond {
		return 1
	}
	r.mu.RUnlock()
	return 0
}

func (r *R) ReadClean() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return 0
}
