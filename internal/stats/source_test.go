package stats

import (
	"math/rand"
	"testing"
)

// TestCountingSourceStreamIsTheBareSource: a rand.Rand on the counting source
// returns what one on rand.NewSource returns, method by method — including
// the methods that reject and redraw (Intn, Perm, NormFloat64) and so consume
// a data-dependent number of values.
func TestCountingSourceStreamIsTheBareSource(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		src := NewCountingSource(rand.NewSource(seed))
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			var a, b any
			switch i % 7 {
			case 0:
				a, b = got.Float64(), want.Float64()
			case 1:
				a, b = got.NormFloat64(), want.NormFloat64()
			case 2:
				a, b = got.Intn(1+i), want.Intn(1+i)
			case 3:
				a, b = got.Int63(), want.Int63()
			case 4:
				a, b = got.Uint64(), want.Uint64()
			case 5:
				a, b = got.Uint32(), want.Uint32()
			case 6:
				p, q := got.Perm(1+i%17), want.Perm(1+i%17)
				for j := range p {
					if p[j] != q[j] {
						t.Fatalf("seed %d draw %d: Perm %v, bare source %v", seed, i, p, q)
					}
				}
				continue
			}
			if a != b {
				t.Fatalf("seed %d draw %d: %v, bare source %v", seed, i, a, b)
			}
		}
		if src.Pos() < 2000 {
			t.Fatalf("seed %d: %d values counted for 2000 draws", seed, src.Pos())
		}
	}
}

// TestCountingSourceSeek: a fresh source wound to a recorded position
// continues the stream the first one was on, whatever mix of methods got it
// there; seeking to the current position changes nothing; the generator does
// not run backwards.
func TestCountingSourceSeek(t *testing.T) {
	a := NewCountingSource(rand.NewSource(9))
	ra := rand.New(a)
	for i := 0; i < 500; i++ {
		ra.NormFloat64()
		ra.Perm(5)
		ra.Intn(1000)
	}
	pos := a.Pos()

	b := NewCountingSource(rand.NewSource(9))
	if err := b.SeekTo(pos); err != nil {
		t.Fatal(err)
	}
	if err := b.SeekTo(b.Pos()); err != nil || b.Pos() != pos {
		t.Fatalf("SeekTo(Pos()): %v, position %d → %d", err, pos, b.Pos())
	}
	rb := rand.New(b)
	for i := 0; i < 100; i++ {
		if x, y := ra.Float64(), rb.Float64(); x != y {
			t.Fatalf("draw %d after the seek: %v, the original stream has %v", i, y, x)
		}
	}
	if a.Pos() != b.Pos() {
		t.Fatalf("positions drifted: %d vs %d", a.Pos(), b.Pos())
	}

	if err := b.SeekTo(pos); err == nil {
		t.Fatal("seeking backwards succeeded")
	}
	if b.Pos() != a.Pos() {
		t.Fatalf("a refused seek moved the source to %d", b.Pos())
	}
	b.Seed(9)
	if b.Pos() != 0 || rand.New(b).Int63() != rand.New(rand.NewSource(9)).Int63() {
		t.Fatal("Seed did not restart the stream at position 0")
	}

	// Counting can start in the middle of a stream: positions are then
	// relative to that point, and two sources wrapped at the same point agree.
	bare1, bare2 := rand.NewSource(11), rand.NewSource(11)
	for i := 0; i < 37; i++ {
		bare1.Int63()
		bare2.Int63()
	}
	c1, c2 := NewCountingSource(bare1), NewCountingSource(bare2)
	r1 := rand.New(c1)
	for i := 0; i < 50; i++ {
		r1.NormFloat64()
	}
	if c2.Pos() != 0 {
		t.Fatalf("a source wrapped mid-stream starts at %d", c2.Pos())
	}
	if err := c2.SeekTo(c1.Pos()); err != nil {
		t.Fatal(err)
	}
	if x, y := r1.Int63(), rand.New(c2).Int63(); x != y {
		t.Fatalf("after seeking a mid-stream source: %d vs %d", y, x)
	}
}
