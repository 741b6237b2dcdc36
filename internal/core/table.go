package core

// probeTable is the hash table H of Section III-A, fused with the
// locator-prefix frontier filter: an open-addressed, linear-probe map
// from 64-bit incremental word-set hashes to data nodes (a node's number
// plus one; 0 is no node), where each slot
// additionally carries a reference count of live locators having that
// word set as a sorted prefix. A node's key — the hash of its full
// locator — is also that locator's last prefix, so the two roles share
// slots naturally: subset enumeration resolves "is any locator reachable
// below this subset?" and "is there a node at exactly this subset?" with
// a single probe.
//
// Subset enumeration performs the large majority of all index memory
// accesses (the lookups(n) term of Equation 2), and its keys are already
// uniform FNV-1a hashes, so a lookup here is one multiply, a mask, and a
// short scan over a flat key column — no re-hashing and no bucket
// indirection. Deletions leave tombstones; rebuilds on growth drop them.
type probeTable struct {
	keys  []uint64
	vals  []uint32
	cnt   []uint32 // locator-prefix references per slot
	state []uint8  // slotEmpty, slotFull or slotTomb
	nodes int      // full slots holding a node
	live  int      // full slots (node, prefix references, or both)
	used  int      // full + tombstone slots
}

const (
	slotEmpty uint8 = iota
	slotFull
	slotTomb

	// probeFib scrambles the (already uniform) key so that linear-probe
	// runs do not align with arithmetic key patterns.
	probeFib = 0x9E3779B97F4A7C15
)

func (t *probeTable) len() int { return t.nodes }

// get returns the node stored under h, or 0 (also when h is live only
// as a prefix of longer locators).
func (t *probeTable) get(h uint64) uint32 {
	if t.live == 0 {
		return 0
	}
	mask := uint64(len(t.keys) - 1)
	for i := (h * probeFib) & mask; ; i = (i + 1) & mask {
		st := t.state[i]
		if st == slotFull && t.keys[i] == h {
			return t.vals[i]
		}
		if st == slotEmpty {
			return 0
		}
	}
}

// lookup is the single-probe enumeration primitive: it returns the node
// stored under h (0 if none) and whether h is live at all — as a node
// key or as a prefix of some live locator. ok == false prunes the whole
// DFS subtree rooted at h.
func (t *probeTable) lookup(h uint64) (v uint32, ok bool) {
	if t.live == 0 {
		return 0, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := (h * probeFib) & mask; ; i = (i + 1) & mask {
		st := t.state[i]
		if st == slotFull && t.keys[i] == h {
			return t.vals[i], true
		}
		if st == slotEmpty {
			return 0, false
		}
	}
}

// slot returns the index of h's slot, upserting an empty one (with zero
// count and no node) if absent.
func (t *probeTable) slot(h uint64) int {
	if t.used*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	ins := -1
	for i := (h * probeFib) & mask; ; i = (i + 1) & mask {
		switch t.state[i] {
		case slotFull:
			if t.keys[i] == h {
				return int(i)
			}
		case slotTomb:
			if ins < 0 {
				ins = int(i)
			}
		case slotEmpty:
			if ins < 0 {
				ins = int(i)
				t.used++
			}
			t.keys[ins], t.vals[ins], t.cnt[ins], t.state[ins] = h, 0, 0, slotFull
			t.live++
			return ins
		}
	}
}

// put stores node v (non-zero) under h, replacing any existing node and
// preserving the slot's prefix references.
func (t *probeTable) put(h uint64, v uint32) {
	i := t.slot(h)
	if t.vals[i] == 0 {
		t.nodes++
	}
	t.vals[i] = v
}

// del removes the node under h, if present. The slot survives as long as
// prefix references remain.
func (t *probeTable) del(h uint64) {
	if t.live == 0 {
		return
	}
	mask := uint64(len(t.keys) - 1)
	for i := (h * probeFib) & mask; ; i = (i + 1) & mask {
		st := t.state[i]
		if st == slotFull && t.keys[i] == h {
			if t.vals[i] != 0 {
				t.vals[i] = 0
				t.nodes--
			}
			if t.cnt[i] == 0 {
				t.state[i] = slotTomb
				t.live--
			}
			return
		}
		if st == slotEmpty {
			return
		}
	}
}

// add adds n prefix references to h, upserting its slot.
func (t *probeTable) add(h uint64, n uint32) {
	t.cnt[t.slot(h)] += n
}

// dec drops one prefix reference from h; a slot with no references and no
// node becomes a tombstone.
func (t *probeTable) dec(h uint64) {
	if t.live == 0 {
		return
	}
	mask := uint64(len(t.keys) - 1)
	for i := (h * probeFib) & mask; ; i = (i + 1) & mask {
		st := t.state[i]
		if st == slotFull && t.keys[i] == h {
			if t.cnt[i]--; t.cnt[i] == 0 && t.vals[i] == 0 {
				t.state[i] = slotTomb
				t.live--
			}
			return
		}
		if st == slotEmpty {
			return
		}
	}
}

// grow rehashes into a table sized for the live entries (at most 50%
// load), dropping tombstones.
func (t *probeTable) grow() {
	size := 64
	for size < (t.live+1)*2 {
		size *= 2
	}
	t.resize(size)
}

// reserve sizes an empty table for n entries without leaving slot's load
// bound: the capacity n upserts would have doubled their way to, so a bulk
// load that starts here ends at the capacity one-by-one inserts reach.
func (t *probeTable) reserve(n int) {
	size := 64
	for n*4 >= size*3 {
		size *= 2
	}
	t.resize(size)
}

// resize moves the full slots into fresh arrays of size slots (a power of
// two).
func (t *probeTable) resize(size int) {
	keys, vals, cnt, state := t.keys, t.vals, t.cnt, t.state
	t.keys = make([]uint64, size)
	t.vals = make([]uint32, size)
	t.cnt = make([]uint32, size)
	t.state = make([]uint8, size)
	t.nodes, t.live, t.used = 0, 0, 0
	for i, st := range state {
		if st == slotFull {
			j := t.slot(keys[i])
			t.cnt[j] = cnt[i]
			if vals[i] != 0 {
				t.vals[j] = vals[i]
				t.nodes++
			}
		}
	}
}

// each calls fn for every (hash, node) entry in slot order until fn
// returns false. Prefix-only slots are skipped.
func (t *probeTable) each(fn func(h uint64, v uint32) bool) {
	for i, st := range t.state {
		if st == slotFull && t.vals[i] != 0 && !fn(t.keys[i], t.vals[i]) {
			return
		}
	}
}

// eachPrefix calls fn for every slot holding prefix references, in
// unspecified order, until fn returns false.
func (t *probeTable) eachPrefix(fn func(h uint64, cnt uint32) bool) {
	for i, st := range t.state {
		if st == slotFull && t.cnt[i] > 0 && !fn(t.keys[i], t.cnt[i]) {
			return
		}
	}
}

// bytes returns the memory the table holds.
func (t *probeTable) bytes() int { return cap(t.keys) * (8 + 4 + 4 + 1) }
