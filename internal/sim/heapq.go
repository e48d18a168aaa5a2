package sim

// heapQueue is a plain binary heap of events by (at, seq): the calendar
// queue's far-future overflow. Nodes enter straight from the engine's
// allocator and the heap never links them, so a popped event always has
// next == nil, as the freelist expects.
type heapQueue struct {
	h []*event
}

func (q *heapQueue) peek() *event {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

func (q *heapQueue) push(ev *event) {
	q.h = append(q.h, ev)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(q.h[parent]) {
			break
		}
		q.h[i] = q.h[parent]
		i = parent
	}
	q.h[i] = ev
}

func (q *heapQueue) pop() *event {
	if len(q.h) == 0 {
		return nil
	}
	min := q.h[0]
	last := q.h[len(q.h)-1]
	q.h[len(q.h)-1] = nil // release the reference for the recycler
	q.h = q.h[:len(q.h)-1]
	if h := q.h; len(h) > 0 {
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			if l >= len(h) {
				break
			}
			c := l
			if r < len(h) && h[r].before(h[l]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	return min
}
