package span

import "hafw/internal/trace"

func Leak(r *trace.Recorder, cond bool) {
	sp := r.StartSpan("n", "s", "work") // want `span sp is not ended on every return path`
	if cond {
		return
	}
	sp.End()
}

func LeakAtEnd(r *trace.Recorder, c chan int) {
	sp := r.StartSpan("n", "s", "work") // want `span sp is not ended on every return path`
	if <-c == 0 {
		sp.End()
		return
	}
}

func DeferEnd(r *trace.Recorder, cond bool) {
	sp := r.StartSpan("n", "s", "work")
	defer sp.End()
	if cond {
		return
	}
}

func EndOnAllPaths(r *trace.Recorder, cond bool) {
	sp := r.StartSpan("n", "s", "work")
	if cond {
		sp.End()
		return
	}
	sp.End()
}

func Transfer(r *trace.Recorder) *trace.Span {
	sp := r.StartSpan("n", "s", "work")
	return sp
}

func PassOff(r *trace.Recorder) {
	sp := r.StartSpan("n", "s", "work")
	finish(sp)
}

func finish(sp *trace.Span) { sp.End() }

func Capture(r *trace.Recorder, run func(func())) {
	sp := r.StartSpan("n", "s", "work")
	run(func() { sp.End() })
}

func Suppressed(r *trace.Recorder, cond bool) {
	sp := r.StartSpan("n", "s", "work") //nolint:hafw/leakcheck // test fixture: span closed by the recorder on shutdown
	if cond {
		return
	}
	sp.End()
}
