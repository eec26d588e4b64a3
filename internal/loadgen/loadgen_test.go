package loadgen

import "testing"

func TestZipfHotSpotting(t *testing.T) {
	// With strong skew, the hottest unit must absorb the majority of
	// sessions; the sampler is deterministic so this cannot flake.
	s := newSampler(Workload{ZipfS: 2.0}.withDefaults(), 1, 0, 8)
	counts := make([]int, 8)
	for i := 0; i < 4000; i++ {
		counts[s.unit()]++
	}
	if counts[0] < 2000 {
		t.Errorf("unit 0 drew %d/4000 sessions, want a hot-spot majority (%v)", counts[0], counts)
	}
	for i := 1; i < 8; i++ {
		if counts[i] > counts[0] {
			t.Errorf("unit %d hotter than unit 0: %v", i, counts)
		}
	}

	// Uniform when skew is disabled.
	u := newSampler(Workload{}.withDefaults(), 1, 0, 8)
	counts = make([]int, 8)
	for i := 0; i < 4000; i++ {
		counts[u.unit()]++
	}
	for i, n := range counts {
		if n < 4000/8/2 {
			t.Errorf("uniform sampler starved unit %d: %v", i, counts)
		}
	}
}

func TestSamplerDistributions(t *testing.T) {
	s := newSampler(Workload{SessionLen: 10, SessionLenDist: DistExp,
		ReqBytes: 32, ReqBytesDist: DistExp}.withDefaults(), 7, 3, 1)
	var lenSum, byteSum int
	for i := 0; i < 2000; i++ {
		l, b := s.sessionLen(), s.reqBytes()
		if l < 1 || l > 80 {
			t.Fatalf("sessionLen %d outside [1, 8·mean]", l)
		}
		if b < 1 || b > 256 {
			t.Fatalf("reqBytes %d outside [1, 8·mean]", b)
		}
		lenSum += l
		byteSum += b
	}
	if mean := float64(lenSum) / 2000; mean < 5 || mean > 15 {
		t.Errorf("exp session length mean = %.1f, want ≈10", mean)
	}
	if mean := float64(byteSum) / 2000; mean < 16 || mean > 48 {
		t.Errorf("exp request size mean = %.1f, want ≈32", mean)
	}

	f := newSampler(Workload{SessionLen: 10, ReqBytes: 32}.withDefaults(), 7, 3, 1)
	if f.sessionLen() != 10 || f.reqBytes() != 32 {
		t.Errorf("fixed dist must return the mean")
	}
}

func TestSizeClampCountedAndCapped(t *testing.T) {
	// Explicit cap: draws never exceed it, and truncations are counted
	// rather than silently folded into the distribution.
	s := newSampler(Workload{ReqBytes: 32 << 10, ReqBytesDist: DistExp,
		ReqBytesMax: 48 << 10}.withDefaults(), 3, 0, 1)
	for i := 0; i < 4000; i++ {
		if b := s.reqBytes(); b > 48<<10 {
			t.Fatalf("draw %d exceeds explicit cap", b)
		}
	}
	if s.clamps == 0 {
		t.Error("no clamps counted although the cap sits inside the exponential tail")
	}

	// Default cap (8x mean) is likewise counted.
	d := newSampler(Workload{ReqBytes: 1 << 20, ReqBytesDist: DistExp}.withDefaults(), 3, 0, 1)
	for i := 0; i < 4000; i++ {
		if b := d.reqBytes(); b > 8<<20 {
			t.Fatalf("draw %d exceeds default 8x cap", b)
		}
	}
	if d.clamps == 0 {
		t.Error("default-cap clamps not counted")
	}
}

func TestWorkloadSizeValidation(t *testing.T) {
	// Multi-MB means are in range...
	if err := (Workload{ReqBytes: 4 << 20}.withDefaults()).validate(); err != nil {
		t.Errorf("4 MiB mean rejected: %v", err)
	}
	// ...but sizes at the wire frame limit are not.
	if err := (Workload{ReqBytes: 16 << 20}.withDefaults()).validate(); err == nil {
		t.Error("frame-sized mean accepted")
	}
	if err := (Workload{ReqBytes: 1024, ReqBytesMax: 16 << 20}.withDefaults()).validate(); err == nil {
		t.Error("frame-sized cap accepted")
	}
	if err := (Workload{ReqBytes: 4096, ReqBytesMax: 1024}.withDefaults()).validate(); err == nil {
		t.Error("cap below mean accepted")
	}
}
