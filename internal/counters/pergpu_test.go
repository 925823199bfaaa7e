package counters

import "testing"

func TestPerGPUReadOnlyAgreement(t *testing.T) {
	p := NewPerGPU(2)
	for i := 0; i < 5; i++ {
		p.NoteRead(3, 0)
	}
	if !p.ReadOnly(3, 0, 4) {
		t.Fatal("5 reads, threshold 4: replica should be granted")
	}
	if p.ReadOnly(3, 0, 5) {
		t.Fatal("5 reads, threshold 5: replica granted too eagerly")
	}
	if p.ReadOnly(3, 1, 0) {
		t.Fatal("GPU with no reads got a replica")
	}
	// Any writer anywhere vetoes read-only replication.
	p.NoteWrite(3, 1)
	if p.ReadOnly(3, 0, 0) {
		t.Fatal("replica granted with a live writer")
	}
}

func TestPerGPUWriteWinner(t *testing.T) {
	p := NewPerGPU(3)
	for i := 0; i < 10; i++ {
		p.NoteWrite(7, 1)
	}
	for i := 0; i < 4; i++ {
		p.NoteRead(7, 0)
	}
	// writes(1)=10 > reads(0)=4 + threshold 5 → winner.
	if !p.WriteWinner(7, 1, 5) {
		t.Fatal("sole writer with margin lost the arbitration")
	}
	if p.WriteWinner(7, 1, 6) {
		t.Fatal("threshold 6: 10 <= 4+6 must not win")
	}
	if p.WriteWinner(7, 0, 0) {
		t.Fatal("non-writer won a writable migration")
	}
	// A second writer anywhere breaks sole-writer.
	p.NoteWrite(7, 2)
	if p.WriteWinner(7, 1, 0) {
		t.Fatal("winner with a competing writer")
	}
}

func TestPerGPUHalvingOnSaturation(t *testing.T) {
	p := NewPerGPU(2)
	p.NoteRead(1, 0)
	i := p.idx(1, 0)
	p.reads[i] = PerGPUMax
	p.NoteWrite(1, 1)
	p.writes[p.idx(1, 1)] = 8
	p.NoteRead(1, 0) // saturates → halve sweep, then bump
	if got := p.Reads(1, 0); got != PerGPUMax/2+1 {
		t.Fatalf("reads after halving = %d, want %d", got, PerGPUMax/2+1)
	}
	if got := p.writes[p.idx(1, 1)]; got != 4 {
		t.Fatalf("writes after halving = %d, want 4", got)
	}
}

func TestPerGPUGrowthPreservesCounts(t *testing.T) {
	p := NewPerGPU(2)
	p.NoteRead(0, 0)
	p.NoteWrite(1000, 1) // forces growth
	if p.Reads(0, 0) != 1 || p.writes[p.idx(1000, 1)] != 1 {
		t.Fatal("growth lost counts")
	}
	if p.Reads(500, 0) != 0 || p.ReadOnly(2000, 0, 0) {
		t.Fatal("untracked blocks not zero")
	}
}
