package gpu

import (
	"testing"

	"uvmsim/internal/memunits"
)

// releaseProg emits a few memory instructions and trailing compute, and
// records how the GPU treats it: the Next calls it saw, whether Next had
// reported retirement, and every Release.
type releaseProg struct {
	t        *testing.T
	left     int
	base     memunits.Addr
	retired  bool
	released int
}

func (p *releaseProg) Next(in *Instr) bool {
	if p.released > 0 {
		p.t.Errorf("Next on a released program")
	}
	if p.left == 0 {
		p.retired = true
		return false
	}
	p.left--
	in.Compute = 3
	in.Write = false
	in.Stride = 0
	in.NumAddrs = 1
	in.Addrs[0] = p.base + memunits.Addr(p.left)*memunits.SectorSize
	if p.left == 0 {
		in.NumAddrs = 0 // trailing compute: retirement goes through finishFn
	}
	return true
}

func (p *releaseProg) Release() {
	if !p.retired {
		p.t.Errorf("Release before the program's last Next")
	}
	p.released++
}

// plainProg runs a releaseProg's stream but does not implement
// Releaser, so the GPU must never reach the inner Release.
type plainProg struct{ inner releaseProg }

func (p *plainProg) Next(in *Instr) bool { return p.inner.Next(in) }

func TestReleaseOncePerRetiredWarp(t *testing.T) {
	g, mem, st, eng := newGPU(testCfg())
	// Some sectors take the async path, so warps retire out of order.
	for i := 0; i < 64; i += 3 {
		mem.slow[memunits.Addr(i)<<20] = true
	}
	const ctas, warps = 9, 2
	var rel []*releaseProg
	var plain []*plainProg
	k := Kernel{
		Name: "release", CTAs: ctas, WarpsPerCTA: warps,
		NewWarp: func(cta, w int) WarpProgram {
			base := memunits.Addr(cta*warps+w) << 20
			if w == 0 {
				p := &releaseProg{t: t, left: 2 + cta%3, base: base}
				rel = append(rel, p)
				return p
			}
			p := &plainProg{releaseProg{t: t, left: 2 + cta%3, base: base}}
			plain = append(plain, p)
			return p
		},
	}
	g.RunSync(k)
	if eng.Pending() != 0 {
		t.Fatalf("%d events left after the kernel", eng.Pending())
	}
	if st.WarpsRetired != ctas*warps {
		t.Fatalf("%d warps retired, want %d", st.WarpsRetired, ctas*warps)
	}
	if len(rel) != ctas {
		t.Fatalf("%d releasable programs built, want %d", len(rel), ctas)
	}
	for i, p := range rel {
		if p.released != 1 {
			t.Errorf("releasable program %d released %d times, want 1", i, p.released)
		}
	}
	for i, p := range plain {
		if !p.inner.retired || p.inner.released != 0 {
			t.Errorf("plain program %d: retired %v, released %d times, want retired and never released",
				i, p.inner.retired, p.inner.released)
		}
	}
}
