package adindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// snapshotHeader is a snapshot's fixed prefix: magic, version, suffix
// bits, MaxWords 10, MaxQueryWords 12, and an empty vocabulary.
func snapshotHeader(suffixBits byte) []byte {
	return append([]byte("ADIXSNAP"), 1, suffixBits, 10, 12, 0)
}

// FuzzLoadSnapshot feeds LoadSnapshot foreign bytes: it never panics,
// every refusal wraps ErrMalformedSnapshot, what it allocates is bounded
// by the input (the signature array a header may name aside), and what it
// accepts answers queries without panicking and survives a write and
// reload. The first two seeds used to kill the process: 18 bytes claiming
// 2^30 signature positions, and 21 bytes claiming a 2^40-byte arena, each
// allocated up front.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add(binary.AppendUvarint(snapshotHeader(8), 1<<30))
	f.Add(binary.AppendUvarint(append(snapshotHeader(8), 0, 0), 1<<40))
	f.Add(append(snapshotHeader(8), 0, 0, 0))
	snap, err := Build(GenerateAds(50, 3), Options{}).Snapshot(10)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// The signature array is 2^SuffixBits bits whatever the input's
		// length, legitimately; keep it small enough to bound the rest.
		if len(data) > 9 {
			if bits, _ := binary.Uvarint(data[9:]); bits > 20 {
				t.Skip()
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ci, err := LoadSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if allocated, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+256*len(data)); allocated > limit {
			t.Fatalf("%d input bytes allocated %d, limit %d", len(data), allocated, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedSnapshot) {
				t.Fatalf("refusal %v does not wrap ErrMalformedSnapshot", err)
			}
			return
		}
		for _, q := range []string{"a", "cheap used books online", "zz"} {
			ci.BroadMatch(q, nil)
		}
		var out bytes.Buffer
		if _, err := ci.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		again, err := LoadSnapshot(&out)
		if err != nil {
			t.Fatalf("an accepted snapshot, written back, is refused: %v", err)
		}
		if again.Sizes() != ci.Sizes() {
			t.Fatalf("reload changed the sizes: %+v vs %+v", again.Sizes(), ci.Sizes())
		}
	})
}

// One snapshot always writes the same bytes, and so do two snapshots of
// one index: the vocabulary is written in word order, not map order.
func TestSnapshotBytesDeterministic(t *testing.T) {
	ix := Build(GenerateAds(200, 5), Options{})
	write := func(c *CompressedIndex) []byte {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, err := ix.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ix.Snapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	first := write(a)
	if !bytes.Equal(write(a), first) {
		t.Fatal("two writes of one snapshot differ")
	}
	if !bytes.Equal(write(b), first) {
		t.Fatal("two snapshots of one index write different bytes")
	}
}
