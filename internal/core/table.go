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
// short scan over a flat column of control bytes, which reads a key only
// where a 7-bit tag of it matches — no re-hashing and no bucket
// indirection. Deletions leave tombstones; rebuilds on growth drop them.
type probeTable struct {
	keys []uint64
	vals []uint32
	cnt  []uint32 // locator-prefix references per slot
	// ctrl is each slot's control byte: ctrlEmpty, ctrlTomb, or, for a
	// full slot, ctrlFull with a 7-bit tag of its key (tag), so a probe
	// reads keys only where the tag matches, as a Swiss table's does.
	ctrl  []uint8
	nodes int // full slots holding a node
	live  int // full slots (node, prefix references, or both)
	used  int // full + tombstone slots
}

const (
	ctrlEmpty uint8 = 0
	ctrlTomb  uint8 = 1
	ctrlFull  uint8 = 0x80

	// probeFib scrambles the (already uniform) key so that linear-probe
	// runs do not align with arithmetic key patterns.
	probeFib = 0x9E3779B97F4A7C15
)

// home returns the slot where the probe for h starts, in a table of
// mask+1 slots, and the control byte of h's full slot: its tag is the
// top bits of the scrambled key, which the home (its low bits) does not
// use.
func home(h, mask uint64) (i uint64, ctrl uint8) {
	x := h * probeFib
	return x & mask, ctrlFull | uint8(x>>57)
}

func (t *probeTable) len() int { return t.nodes }

// find returns the slot holding h, or -1.
func (t *probeTable) find(h uint64) int {
	if t.live == 0 {
		return -1
	}
	mask := uint64(len(t.keys) - 1)
	i, c := home(h, mask)
	for ; ; i = (i + 1) & mask {
		if t.ctrl[i] == c && t.keys[i] == h {
			return int(i)
		}
		if t.ctrl[i] == ctrlEmpty {
			return -1
		}
	}
}

// get returns the node stored under h, or 0 (also when h is live only
// as a prefix of longer locators).
func (t *probeTable) get(h uint64) uint32 {
	if i := t.find(h); i >= 0 {
		return t.vals[i]
	}
	return 0
}

// lookup is the single-probe enumeration primitive: it returns the node
// stored under h (0 if none) and whether h is live at all — as a node
// key or as a prefix of some live locator. ok == false prunes the whole
// DFS subtree rooted at h.
func (t *probeTable) lookup(h uint64) (v uint32, ok bool) {
	if i := t.find(h); i >= 0 {
		return t.vals[i], true
	}
	return 0, false
}

// slot returns the index of h's slot, upserting an empty one (with zero
// count and no node) if absent.
func (t *probeTable) slot(h uint64) int {
	if t.used*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	ins := -1
	i, c := home(h, mask)
	for ; ; i = (i + 1) & mask {
		switch t.ctrl[i] {
		case c:
			if t.keys[i] == h {
				return int(i)
			}
		case ctrlTomb:
			if ins < 0 {
				ins = int(i)
			}
		case ctrlEmpty:
			if ins < 0 {
				ins = int(i)
				t.used++
			}
			t.keys[ins], t.vals[ins], t.cnt[ins], t.ctrl[ins] = h, 0, 0, c
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
	i := t.find(h)
	if i < 0 {
		return
	}
	if t.vals[i] != 0 {
		t.vals[i] = 0
		t.nodes--
	}
	t.kill(i)
}

// add adds n prefix references to h, upserting its slot.
func (t *probeTable) add(h uint64, n uint32) {
	t.cnt[t.slot(h)] += n
}

// dec drops one prefix reference from h; a slot with no references and no
// node becomes a tombstone.
func (t *probeTable) dec(h uint64) {
	if i := t.find(h); i >= 0 {
		t.cnt[i]--
		t.kill(i)
	}
}

// kill makes slot i a tombstone if it holds neither a node nor prefix
// references.
func (t *probeTable) kill(i int) {
	if t.cnt[i] == 0 && t.vals[i] == 0 {
		t.ctrl[i] = ctrlTomb
		t.live--
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

// tableSize is the capacity a table holding n keys ends at, whether it
// grew to them one upsert at a time or was sized for them up front: the
// smallest power of two, at least 64, that keeps slot's load bound.
func tableSize(n int) int {
	size := 64
	for n*4 >= size*3 {
		size *= 2
	}
	return size
}

// use makes the table empty over the given zeroed arrays, all of one
// power-of-two length.
func (t *probeTable) use(keys []uint64, vals, cnt []uint32, ctrl []uint8) {
	*t = probeTable{keys: keys, vals: vals, cnt: cnt, ctrl: ctrl}
}

// resize moves the full slots into fresh arrays of size slots (a power of
// two).
func (t *probeTable) resize(size int) {
	old := *t
	t.use(make([]uint64, size), make([]uint32, size), make([]uint32, size), make([]uint8, size))
	for i, c := range old.ctrl {
		if c >= ctrlFull {
			j := t.slot(old.keys[i])
			t.cnt[j] = old.cnt[i]
			if old.vals[i] != 0 {
				t.vals[j] = old.vals[i]
				t.nodes++
			}
		}
	}
}

// each calls fn for every (hash, node) entry in slot order until fn
// returns false. Prefix-only slots are skipped.
func (t *probeTable) each(fn func(h uint64, v uint32) bool) {
	for i, c := range t.ctrl {
		if c >= ctrlFull && t.vals[i] != 0 && !fn(t.keys[i], t.vals[i]) {
			return
		}
	}
}

// eachPrefix calls fn for every slot holding prefix references, in
// unspecified order, until fn returns false.
func (t *probeTable) eachPrefix(fn func(h uint64, cnt uint32) bool) {
	for i, c := range t.ctrl {
		if c >= ctrlFull && t.cnt[i] > 0 && !fn(t.keys[i], t.cnt[i]) {
			return
		}
	}
}

// bytes returns the memory the table holds.
func (t *probeTable) bytes() int { return cap(t.keys) * (8 + 4 + 4 + 1) }
