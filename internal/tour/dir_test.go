package tour

import (
	"sync"
	"sync/atomic"
	"testing"
)

// scan is the raiders' loop over a Dir: the non-nil entries below the
// high-water mark, in slot order.
func scan(d *Dir[int]) []*int {
	var out []*int
	for i, n := 0, d.Len(); i < n; i++ {
		if v := d.At(i); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// TestDirOperations checks each operation on one goroutine: Publish fills
// the first hole and refuses an entry when full, Retire punches a hole and
// ignores a refused index or a slot that holds another entry, the
// high-water mark bounds scans and survives retires, and Clear empties the
// directory.
func TestDirOperations(t *testing.T) {
	var d Dir[int]
	vals := make([]int, DirSlots+1)
	if d.Len() != 0 || len(scan(&d)) != 0 {
		t.Fatal("zero Dir is not empty")
	}
	for i := 0; i < 3; i++ {
		if got := d.Publish(&vals[i]); got != i {
			t.Fatalf("publish %d took slot %d, want %d", i, got, i)
		}
	}
	if d.Len() != 3 {
		t.Fatalf("high-water mark %d after three publishes, want 3", d.Len())
	}
	d.Retire(1, &vals[0]) // slot 1 holds vals[1], not vals[0]
	if d.At(1) != &vals[1] {
		t.Fatal("Retire emptied a slot holding another entry")
	}
	d.Retire(1, &vals[1])
	if d.At(1) != nil {
		t.Fatal("Retire left its entry in place")
	}
	if d.Len() != 3 {
		t.Fatalf("high-water mark %d after a retire, want 3", d.Len())
	}
	if got := scan(&d); len(got) != 2 || got[0] != &vals[0] || got[1] != &vals[2] {
		t.Fatalf("scan across a hole returned %d entries, want vals[0] and vals[2]", len(got))
	}
	if got := d.Publish(&vals[3]); got != 1 {
		t.Fatalf("publish into a hole took slot %d, want 1", got)
	}
	for i := 4; i < DirSlots+1; i++ {
		d.Publish(&vals[i])
	}
	if d.Len() != DirSlots {
		t.Fatalf("high-water mark %d when full, want %d", d.Len(), DirSlots)
	}
	if got := d.Publish(&vals[0]); got != -1 {
		t.Fatalf("publish into a full Dir took slot %d, want -1", got)
	}
	d.Retire(-1, &vals[0]) // a refused Publish's index
	if len(scan(&d)) != DirSlots {
		t.Fatal("Retire(-1) changed the directory")
	}
	d.Clear()
	if d.Len() != 0 || len(scan(&d)) != 0 {
		t.Fatal("Clear left entries or a high-water mark")
	}
	for i := range d.slot {
		if d.At(i) != nil {
			t.Fatalf("Clear left slot %d set", i)
		}
	}
	if got := d.Publish(&vals[0]); got != 0 || d.Len() != 1 {
		t.Fatalf("publish after Clear took slot %d with mark %d, want 0 and 1", got, d.Len())
	}
}

// TestDirConcurrentPublishRetireScan races publishers, each publishing and
// retiring its own entry in a loop, against scanners. There are fewer
// publishers than slots, so no Publish is refused; a publisher always finds
// its entry where Publish put it, below the high-water mark; a scanner only
// ever reads published entries; and the directory ends empty. Run under
// -race, as CI does.
func TestDirConcurrentPublishRetireScan(t *testing.T) {
	const (
		publishers = DirSlots / 2
		rounds     = 2000
	)
	var d Dir[int]
	vals := make([]int, publishers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, v := range scan(&d) {
					if *v < 0 || *v >= publishers {
						t.Errorf("scan read an entry nobody published: %d", *v)
						return
					}
				}
			}
		}()
	}
	var pubs sync.WaitGroup
	for p := 0; p < publishers; p++ {
		vals[p] = p
		pubs.Add(1)
		go func(v *int) {
			defer pubs.Done()
			for r := 0; r < rounds; r++ {
				i := d.Publish(v)
				if i < 0 {
					t.Errorf("publisher %d refused with %d of %d slots in use at most", *v, publishers, DirSlots)
					return
				}
				if d.At(i) != v || d.Len() <= i {
					t.Errorf("publisher %d: slot %d holds another entry or sits above the mark %d", *v, i, d.Len())
					return
				}
				d.Retire(i, v)
			}
		}(&vals[p])
	}
	pubs.Wait()
	stop.Store(true)
	wg.Wait()
	if got := scan(&d); len(got) != 0 {
		t.Fatalf("%d entries left after every publisher retired", len(got))
	}
	if d.Len() > publishers {
		t.Fatalf("high-water mark %d with %d publishers", d.Len(), publishers)
	}
}
