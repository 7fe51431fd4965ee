package qth

// White-box tests for the pool's FEB cost model: a pop of an empty pool reads
// head and tail full-to-full and makes no FE transition, a pop that finds work
// pays a ReadFE/WriteEF pair on each word plus one slot.TouchFE per unit, and
// units leave in the order pushAll and push queued them.

import (
	"testing"
	"time"

	"repro/glt"
	"repro/glt/qth/feb"
)

// newCountedPool builds a pool whose head and tail live on words and whose
// slot word lives on its own table, so each table's Ops counts one side of
// the cost model.
func newCountedPool() (p *pool, words, slot *feb.Table) {
	words, slot = feb.NewTable(0), feb.NewTable(0)
	p = newPool(words)
	p.slot.Init(slot, 0)
	return p, words, slot
}

// full reports whether w is full: ReadFF returns at once on a full word and
// waits on an empty one, which no other party here will ever fill.
func full(w *feb.Word) bool {
	done := make(chan struct{})
	go func() {
		w.ReadFF()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

func units(n int) []*glt.Unit {
	us := make([]*glt.Unit, n)
	for i := range us {
		us[i] = new(glt.Unit)
	}
	return us
}

func TestPoolEmptyPopMakesNoFETransition(t *testing.T) {
	p, words, slot := newCountedPool()
	// A fresh pool, then one drained after a push: both are empty.
	for _, fill := range []int{0, 3} {
		p.pushAll(units(fill))
		for i := 0; i < fill; i++ {
			p.pop()
		}
		ops, waits, slotOps := words.Ops(), words.Waits(), slot.Ops()
		const pops = 4
		for i := 0; i < pops; i++ {
			if u := p.pop(); u != nil {
				t.Fatalf("after %d pushes and pops: pop of an empty pool returned a unit", fill)
			}
		}
		if got := words.Ops() - ops; got != 2*pops {
			t.Errorf("after %d pushes and pops: %d empty pops made %d head/tail operations, want %d full-to-full reads",
				fill, pops, got, 2*pops)
		}
		if got := words.Waits() - waits; got != 0 {
			t.Errorf("after %d pushes and pops: empty pops waited %d times, want 0", fill, got)
		}
		if got := slot.Ops() - slotOps; got != 0 {
			t.Errorf("after %d pushes and pops: empty pops touched the slot word %d times, want 0", fill, got)
		}
		if head, tail := full(&p.head), full(&p.tail); !head || !tail {
			t.Fatalf("after %d pushes and pops: head full %v, tail full %v; both must stay full",
				fill, head, tail)
		}
	}
}

func TestPoolPopPaysOneTouchPerUnit(t *testing.T) {
	p, words, slot := newCountedPool()
	const n = 5
	p.pushAll(units(n))
	if got := slot.Ops(); got != 2*n {
		t.Fatalf("pushAll of %d units made %d slot operations, want %d (one TouchFE each)", n, got, 2*n)
	}
	for i := 0; i < n; i++ {
		ops, slotOps := words.Ops(), slot.Ops()
		if p.pop() == nil {
			t.Fatalf("pop %d of %d returned nil", i+1, n)
		}
		// Two full-to-full reads find the pool non-empty, then a ReadFE and
		// a WriteEF on each of head and tail.
		if got := words.Ops() - ops; got != 6 {
			t.Errorf("pop %d made %d head/tail operations, want 6", i+1, got)
		}
		if got := slot.Ops() - slotOps; got != 2 {
			t.Errorf("pop %d made %d slot operations, want 2 (one TouchFE)", i+1, got)
		}
	}
	if got := words.Waits() + slot.Waits(); got != 0 {
		t.Errorf("an uncontended push and pop waited %d times, want 0", got)
	}
}

func TestPoolFIFOAcrossPushAllAndPop(t *testing.T) {
	p, _, _ := newCountedPool()
	var want []*glt.Unit
	push := func(us []*glt.Unit) {
		if len(us) == 1 {
			p.push(us[0])
		} else {
			p.pushAll(us)
		}
		want = append(want, us...)
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			u := p.pop()
			if u != want[0] {
				t.Fatalf("pop returned %p, want %p (the oldest queued unit)", u, want[0])
			}
			want = want[1:]
		}
	}
	// Wrap the ring's head past its start, then grow it while wrapped.
	push(units(40))
	pop(30)
	push(units(1))
	push(units(2 * initialRing))
	pop(50)
	push(units(1))
	pop(len(want))
	if u := p.pop(); u != nil {
		t.Fatal("pop of a drained pool returned a unit")
	}
}
