package netem

// ring is a growable circular buffer backing a link's drain and flight
// queues. Capacity is kept a power of two so index wrap is a
// mask; the buffer is reused across the whole simulation, so steady
// state pushes allocate nothing.
type ring[T any] struct {
	buf  []T
	head int // index of the front element
	n    int // live element count
}

// grow doubles the buffer when full, unwrapping the live elements to
// the start of the new slice.
func (r *ring[T]) grow() {
	if r.n < len(r.buf) {
		return
	}
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	nb := make([]T, size)
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&mask]
	}
	r.buf = nb
	r.head = 0
}

// reset empties the ring in place, zeroing the live slots so pointer
// fields do not pin garbage; the buffer is kept for reuse.
func (r *ring[T]) reset() {
	var zero T
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&mask] = zero
	}
	r.head = 0
	r.n = 0
}

// front returns a pointer to the first element; r must be non-empty.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// back returns a pointer to the last element; r must be non-empty.
func (r *ring[T]) back() *T { return r.at(r.n - 1) }

// at returns a pointer to the i-th element from the front.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// pushBack appends v.
func (r *ring[T]) pushBack(v T) {
	r.grow()
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// popFront removes the first element, zeroing its slot so pointer
// fields do not pin garbage.
func (r *ring[T]) popFront() {
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// insert places v before the i-th element (i == n appends), shifting
// the tail one slot back. Only the non-monotone SetDelay fallback pays
// this O(n-i) cost.
func (r *ring[T]) insert(i int, v T) {
	r.grow()
	mask := len(r.buf) - 1
	for j := r.n; j > i; j-- {
		r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
	}
	r.buf[(r.head+i)&mask] = v
	r.n++
}
