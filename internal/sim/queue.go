package sim

import "container/heap"

// noteHeap is a priority queue of timed notifications ordered by
// (time, insertion sequence) so simultaneous notifications fire in the
// order they were scheduled — the determinism guarantee of the kernel.
type noteHeap struct {
	items []*timedNote
}

func (h *noteHeap) Len() int { return len(h.items) }

func (h *noteHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *noteHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].heap = i
	h.items[j].heap = j
}

func (h *noteHeap) Push(x any) {
	n := x.(*timedNote)
	n.heap = len(h.items)
	h.items = append(h.items, n)
}

func (h *noteHeap) Pop() any {
	old := h.items
	n := old[len(old)-1]
	old[len(old)-1] = nil
	h.items = old[:len(old)-1]
	n.heap = -1
	return n
}

func (h *noteHeap) push(n *timedNote) {
	heap.Push(h, n)
}

func (h *noteHeap) pop() *timedNote {
	return heap.Pop(h).(*timedNote)
}

func (h *noteHeap) peek() *timedNote {
	return h.items[0]
}

// onlySteps reports whether every note due by w in the subtree at i is
// a SleepSteps step, falling exactly at w with steps still owed, whose
// sleeper is not frozen: one that would only re-arm. Notes due by w
// form a subtree at the root, so each path stops at the first later
// note.
func (h *noteHeap) onlySteps(i int, w Time) bool {
	if i >= len(h.items) || h.items[i].at > w {
		return true
	}
	n := h.items[i]
	if n.at < w || n.owner == nil || n.owner.steps == 0 || n.owner.frozen {
		return false
	}
	return h.onlySteps(2*i+1, w) && h.onlySteps(2*i+2, w)
}

// remove cancels a pending note; it is a no-op if the note already fired.
func (h *noteHeap) remove(n *timedNote) {
	if n == nil || n.heap < 0 || n.heap >= len(h.items) || h.items[n.heap] != n {
		return
	}
	heap.Remove(h, n.heap)
}
