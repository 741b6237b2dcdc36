package core

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"adindex/internal/corpus"
)

// TestFrozenEqualsHeap: a frozen build is the heap build of the same
// input, column for column and byte for byte, its region header names
// every column's section, and it refuses Insert and Delete.
func TestFrozenEqualsHeap(t *testing.T) {
	ads := append(corpus.Generate(corpus.GenOptions{NumAds: 5000, Seed: 8}).Ads, awkwardAds()...)
	for _, mapping := range []map[string][]string{nil, remapping(ads)} {
		for _, opts := range []Options{{}, {MaxWords: 3}} {
			what := fmt.Sprintf("MaxWords=%d mapped=%v", opts.MaxWords, mapping != nil)
			heap, err := NewWithMapping(ads, mapping, opts)
			if err != nil {
				t.Fatal(err)
			}
			frozen, err := NewFrozen(ads, mapping, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameStructure(t, what, frozen, heap)
			if !reflect.DeepEqual(storage(frozen), storage(heap)) {
				t.Fatalf("%s: storage differs from the heap build", what)
			}
			requireSectionViews(t, what, frozen)
			for name, mutate := range map[string]func(){
				"Insert": func() { frozen.Insert(ads[0]) },
				"Delete": func() { frozen.Delete(ads[0].ID, ads[0].Phrase) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: %s into a frozen index did not panic", what, name)
						}
					}()
					mutate()
				}()
			}
		}
	}
	empty, _ := NewFrozen(nil, nil, Options{})
	if empty.region != nil || empty.NumAds() != 0 {
		t.Fatalf("an empty frozen index has region %v and %d ads", empty.region, empty.NumAds())
	}
}

// requireSectionViews checks a frozen index's region header: its magic,
// and a section per column, in the loader's order, that is exactly the
// memory of that column.
func requireSectionViews(t *testing.T, what string, ix *Index) {
	t.Helper()
	cols := []any{ix.nodes, ix.ids, ix.bids, ix.ctr, ix.campaign, ix.sigs, ix.wcs, ix.sameKey, ix.wordAt, ix.textAt,
		ix.wordIDs, ix.table.keys, ix.table.vals, ix.table.cnt, ix.table.ctrl, ix.voc.table, ix.voc.succ}
	h := ix.region.header(2)
	if h[0] != regionMagic || h[1] != uint64(len(cols)) {
		t.Fatalf("%s: region header %x, %d sections; want %x, %d", what, h[0], h[1], uint64(regionMagic), len(cols))
	}
	for i, col := range cols {
		v := reflect.ValueOf(col)
		sec := ix.region.section(i)
		if n := v.Len() * int(v.Type().Elem().Size()); n != len(sec) || n > 0 && v.Pointer() != uintptr(unsafe.Pointer(&sec[0])) {
			t.Fatalf("%s: column %d (%s) is not the view of section %d", what, i, v.Type(), i)
		}
		if off := uintptr(unsafe.Pointer(unsafe.SliceData(sec))) - uintptr(unsafe.Pointer(&ix.region.mem[0])); off%regionAlign != 0 {
			t.Fatalf("%s: section %d at offset %d", what, i, off)
		}
	}
}
