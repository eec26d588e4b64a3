package order

import "sync"

type X struct {
	mu sync.Mutex
	n  int
}

type Y struct {
	mu sync.Mutex
	n  int
}

// ab establishes the edge X → Y.
func ab(x *X, y *Y) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock() // want `lock-order cycle \(potential deadlock\): order\.\(X\)\.mu → order\.\(Y\)\.mu in ab`
	y.n++
	y.mu.Unlock()
	x.n++
}

// ba establishes the reverse edge Y → X, completing the cycle. The cycle
// is reported once, at the first edge that closes it.
func ba(x *X, y *Y) {
	y.mu.Lock()
	x.mu.Lock()
	x.n++
	x.mu.Unlock()
	y.mu.Unlock()
}

// sequential releases X before taking Y: no edge, no cycle.
type P struct{ mu sync.Mutex }
type Q struct{ mu sync.Mutex }

func sequentialPQ(p *P, q *Q) {
	p.mu.Lock()
	p.mu.Unlock()
	q.mu.Lock()
	q.mu.Unlock()
}

func sequentialQP(p *P, q *Q) {
	q.mu.Lock()
	q.mu.Unlock()
	p.mu.Lock()
	p.mu.Unlock()
}

// reacquire locks the same mutex twice on one path.
func reacquire(x *X) {
	x.mu.Lock()
	x.mu.Lock() // want `reacquire acquires order\.\(X\)\.mu while already holding it`
	x.mu.Unlock()
	x.mu.Unlock()
}

// lockedHelper acquires X's mutex; callers holding it deadlock.
func (x *X) lockedHelper() {
	x.mu.Lock()
	x.n++
	x.mu.Unlock()
}

func callWhileHeld(x *X) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.lockedHelper() // want `callWhileHeld calls lockedHelper, which may acquire order\.\(X\)\.mu, while holding it`
}

// spawnWhileHeld go-calls the same helper: the goroutine starts with an
// empty held-set, so there is no re-entrant acquisition and no edge.
func spawnWhileHeld(x *X) {
	x.mu.Lock()
	defer x.mu.Unlock()
	go x.lockedHelper()
	go func() {
		x.lockedHelper()
	}()
	x.n++
}

// twoInstances locks two X values. The order graph has one node per type,
// so the second Lock is a re-entrant acquisition; release is tracked per
// receiver expression, so unlocking a.mu leaves b.mu held at the return.
func twoInstances(a, b *X) {
	a.mu.Lock()
	b.mu.Lock() // want `twoInstances acquires order\.\(X\)\.mu while already holding it` `b\.mu\.Lock\(\) is not released on every return path`
	a.mu.Unlock()
}
