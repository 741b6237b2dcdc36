package core

import (
	"testing"
)

// tableKeys are the keys FuzzProbeTable's operations draw from: eight
// that share one home slot of a 64-slot table, eight that share a tag and
// a home slot there (so only the key compare tells them apart), and eight
// more spread out.
var tableKeys = func() []uint64 {
	var keys []uint64
	sameHome := func(h uint64) bool { i, _ := home(h, 63); return i == 5 }
	sameTag := func(h uint64) bool { i, c := home(h, 63); return i == 9 && c == ctrlFull|0x2a }
	for _, pick := range []func(uint64) bool{sameHome, sameTag, func(h uint64) bool { return h%7919 == 1 }} {
		for h, n := uint64(1), 0; n < 8; h++ {
			if pick(h) {
				keys = append(keys, h)
				n++
			}
		}
	}
	return keys
}()

// tableModel is what a probeTable holds under one key.
type tableModel struct{ node, refs uint32 }

// FuzzProbeTable drives a probe table with put, del, add and dec
// sequences decoded from the input, over keys that share home slots and
// tags, and holds it to a map after every operation: get and lookup
// answer each key as the map does, each and eachPrefix list what it
// holds, and the node and live counts agree. Deletes leave tombstones
// that later upserts reuse, and the table grows through them.
func FuzzProbeTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0x00, 0x40, 0x01, 0x41, 0x80, 0xc0, 0x00, 0x02, 0x42, 0x82}) // put, del, put again: a tombstone reused
	f.Add([]byte{0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x48, 0x0b}) // one tag, one home
	f.Add([]byte("\x80\x81\x82\x83\x84\x85\x86\x87\xc0\xc1\xc2\x00\x01\x02\x03"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		var tab probeTable
		model := map[uint64]tableModel{}
		for step, op := range ops {
			// A few key bits vary with the step, so long inputs overrun a
			// 64-slot table and grow it.
			h := tableKeys[int(op&0x3f)%len(tableKeys)] + uint64(step/64)<<40
			m := model[h]
			switch op >> 6 {
			case 0:
				m.node = uint32(step) + 1
				tab.put(h, m.node)
			case 1:
				m.node = 0
				tab.del(h)
			case 2:
				n := uint32(op&3) + 1
				m.refs += n
				tab.add(h, n)
			case 3:
				if m.refs == 0 {
					continue // a prefix reference is dropped only where one was added
				}
				m.refs--
				tab.dec(h)
			}
			if m == (tableModel{}) {
				delete(model, h)
			} else {
				model[h] = m
			}
			requireTable(t, step, &tab, model)
		}
	})
}

// requireTable holds tab to model.
func requireTable(t *testing.T, step int, tab *probeTable, model map[uint64]tableModel) {
	t.Helper()
	nodes := 0
	for h, m := range model {
		if v, ok := tab.lookup(h); !ok || v != m.node || tab.get(h) != m.node {
			t.Fatalf("step %d: key %x: lookup (%d, %v), get %d; want node %d", step, h, v, ok, tab.get(h), m.node)
		}
		if m.node != 0 {
			nodes++
		}
	}
	for _, k := range tableKeys {
		h := k + uint64(step/64)<<40
		if _, in := model[h]; !in {
			if v, ok := tab.lookup(h); ok || v != 0 || tab.get(h) != 0 {
				t.Fatalf("step %d: absent key %x: lookup (%d, %v)", step, h, v, ok)
			}
		}
	}
	if tab.len() != nodes || tab.live != len(model) || tab.used < tab.live || tab.used > len(tab.keys) {
		t.Fatalf("step %d: %d nodes, %d live, %d used of %d slots; want %d nodes, %d live", step, tab.len(), tab.live, tab.used, len(tab.keys), nodes, len(model))
	}
	seen := 0
	tab.each(func(h uint64, v uint32) bool {
		if model[h].node != v || v == 0 {
			t.Fatalf("step %d: each lists node %d at %x; want %d", step, v, h, model[h].node)
		}
		seen++
		return true
	})
	tab.eachPrefix(func(h uint64, cnt uint32) bool {
		if model[h].refs != cnt || cnt == 0 {
			t.Fatalf("step %d: eachPrefix lists %d references at %x; want %d", step, cnt, h, model[h].refs)
		}
		seen++
		return true
	})
	want := 0
	for _, m := range model {
		if m.node != 0 {
			want++
		}
		if m.refs != 0 {
			want++
		}
	}
	if seen != want {
		t.Fatalf("step %d: each and eachPrefix list %d entries; want %d", step, seen, want)
	}
}
