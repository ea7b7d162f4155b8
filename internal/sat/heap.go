package sat

// varHeap is a binary max-heap of variables ordered by VSIDS activity,
// with an index map for decrease-key. It holds a pointer to the
// solver's activity slice so bumps are visible without copying.
type varHeap struct {
	activity *[]float64
	heap     []Var
	indices  []int // indices[v] = position in heap, -1 if absent
}

func newVarHeap(act *[]float64) *varHeap {
	return &varHeap{activity: act, indices: make([]int, 1)}
}

// grow preallocates heap storage for variables up to index n-1, the
// varHeap half of Solver.Grow.
func (h *varHeap) grow(n int) {
	h.indices = growCap(h.indices, n)
	h.heap = growCap(h.heap, n)
}

func (h *varHeap) less(a, b Var) bool {
	return (*h.activity)[a] > (*h.activity)[b]
}

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) inHeap(v Var) bool {
	return int(v) < len(h.indices) && h.indices[v] >= 0
}

func (h *varHeap) insert(v Var) {
	for int(v) >= len(h.indices) {
		h.indices = append(h.indices, -1)
	}
	if h.indices[v] >= 0 {
		return
	}
	h.indices[v] = len(h.heap)
	h.heap = append(h.heap, v)
	h.up(h.indices[v])
}

// decrease restores the heap property after v's activity increased
// (key moved toward the top of a max-heap).
func (h *varHeap) decrease(v Var) {
	if h.inHeap(v) {
		h.up(h.indices[v])
	}
}

func (h *varHeap) pop() Var {
	v := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap[0] = last
	h.indices[last] = 0
	h.heap = h.heap[:len(h.heap)-1]
	h.indices[v] = -1
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v
}

func (h *varHeap) up(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.indices[h.heap[i]] = i
		i = p
	}
	h.heap[i] = v
	h.indices[v] = i
}

func (h *varHeap) down(i int) {
	v := h.heap[i]
	for {
		l := 2*i + 1
		if l >= len(h.heap) {
			break
		}
		c := l
		if r := l + 1; r < len(h.heap) && h.less(h.heap[r], h.heap[l]) {
			c = r
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.indices[h.heap[i]] = i
		i = c
	}
	h.heap[i] = v
	h.indices[v] = i
}
