package tour

import "sync/atomic"

// DirSlots is a Dir's capacity: one cache line of pointers.
const DirSlots = 8

// Dir is a directory of published entries that raiders scan without a lock.
// A publisher claims the first empty slot with one CAS and later retires the
// entry with another; a full directory refuses the entry (Publish returns -1)
// and the publisher goes unlisted, so there is no overflow list to lock.
// Scans read the slots below the high-water mark and skip the holes retires
// leave. The zero value is an empty directory. It is padded to two cache
// lines, so neighbouring directories in an array do not false-share.
type Dir[T any] struct {
	slot [DirSlots]atomic.Pointer[T]
	high atomic.Int32
	_    [60]byte
}

// Publish claims the first empty slot for v and returns its index, or -1
// when every slot is taken.
func (d *Dir[T]) Publish(v *T) int {
	for i := range d.slot {
		if d.slot[i].Load() != nil || !d.slot[i].CompareAndSwap(nil, v) {
			continue
		}
		for {
			h := d.high.Load()
			if h > int32(i) || d.high.CompareAndSwap(h, int32(i)+1) {
				return i
			}
		}
	}
	return -1
}

// Retire empties slot i if it still holds v. It is a no-op for i < 0, the
// index of a refused Publish.
func (d *Dir[T]) Retire(i int, v *T) {
	if i >= 0 {
		d.slot[i].CompareAndSwap(v, nil)
	}
}

// Len is the high-water mark: one past the highest slot published since the
// last Clear. Because Publish takes the first empty slot, it is also the most
// entries the directory has held at once. Scans read slots [0, Len()).
func (d *Dir[T]) Len() int { return int(d.high.Load()) }

// At loads slot i: an entry, or nil for a hole or an unused slot.
func (d *Dir[T]) At(i int) *T { return d.slot[i].Load() }

// Clear empties every slot and resets the high-water mark. Callers clear only
// while nothing publishes or retires; concurrent scans are safe.
func (d *Dir[T]) Clear() {
	for i := range d.slot[:d.Len()] {
		d.slot[i].Store(nil)
	}
	d.high.Store(0)
}
