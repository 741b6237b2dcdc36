package compress

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"adindex/internal/corpus"
)

func sampleRecords() []corpus.Ad {
	return []corpus.Ad{
		corpus.NewAd(10, "cheap books", corpus.Meta{CampaignID: 7, BidMicros: 150000, ClickRate: 12}),
		corpus.NewAd(12, "cheap books online", corpus.Meta{CampaignID: 9, BidMicros: 151000, ClickRate: 20,
			Exclusions: []string{"free", "torrent"}}),
		corpus.NewAd(99, "cheap comic books", corpus.Meta{CampaignID: 1, BidMicros: 90000}),
	}
}

func TestRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data := EncodeNode(recs)
	back, err := DecodeNode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", recs, back)
	}
}

func TestEmptyNode(t *testing.T) {
	data := EncodeNode(nil)
	if len(data) != 0 {
		t.Errorf("empty node encoded to %d bytes", len(data))
	}
	back, err := DecodeNode(nil)
	if err != nil || back != nil {
		t.Errorf("decode empty: %v %v", back, err)
	}
}

func TestFrontCodingShrinksSharedPrefixes(t *testing.T) {
	// Phrases sharing long prefixes (the common case after re-mapping)
	// must compress well below raw size.
	var recs []corpus.Ad
	for i := 0; i < 50; i++ {
		recs = append(recs, corpus.NewAd(uint64(i+1),
			"cheap used books category "+string(rune('a'+i%26)),
			corpus.Meta{BidMicros: int64(100000 + i*10)}))
	}
	r := Ratio(recs)
	if r > 0.5 {
		t.Errorf("compression ratio %.2f, expected < 0.5 for shared prefixes", r)
	}
}

func TestRatioEmptyIsOne(t *testing.T) {
	if Ratio(nil) != 1 {
		t.Errorf("Ratio(nil) = %v", Ratio(nil))
	}
}

func TestDecodeErrors(t *testing.T) {
	recs := sampleRecords()
	data := EncodeNode(recs)
	// Every truncation point must produce an error, never a panic or a
	// silent wrong answer of full length.
	for cut := 1; cut < len(data); cut++ {
		back, err := DecodeNode(data[:cut])
		if err == nil && len(back) == len(recs) {
			t.Fatalf("truncation at %d decoded fully without error", cut)
		}
	}
	// Corrupt prefix length pointing beyond previous phrase: 200, and 1<<63,
	// which int() makes negative (it used to pass the check and panic).
	for _, bad := range [][]byte{
		{200, 1, 'x', 0, 0, 0, 0, 0},
		append(binary.AppendUvarint(nil, 1<<63), 0),
	} {
		if _, err := DecodeNode(bad); !errors.Is(err, ErrMalformedNode) {
			t.Errorf("oversized prefix in % x: err %v, want ErrMalformedNode", bad, err)
		}
	}
}

func TestCommonPrefix(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 3},
		{"abc", "abd", 2},
		{"abc", "xyz", 0},
		{"abc", "abcdef", 3},
		{"abcdef", "abc", 3},
	}
	for _, c := range cases {
		if got := commonPrefix(c.a, c.b); got != c.want {
			t.Errorf("commonPrefix(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: encode/decode round-trips arbitrary record sequences, with
// negative bid deltas, zero IDs, unicode phrases, and exclusions.
func TestRoundTripQuick(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "δέλτα", "books", "cheap'n'good"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20)
		recs := make([]corpus.Ad, 0, n)
		id := uint64(rng.Intn(5))
		for i := 0; i < n; i++ {
			id += uint64(rng.Intn(10))
			phrase := ""
			for w := 0; w <= rng.Intn(4); w++ {
				if w > 0 {
					phrase += " "
				}
				phrase += words[rng.Intn(len(words))]
			}
			meta := corpus.Meta{
				CampaignID: rng.Uint32(),
				BidMicros:  int64(rng.Intn(2000000)) - 1000000,
				ClickRate:  uint16(rng.Intn(65536)),
			}
			for e := 0; e < rng.Intn(3); e++ {
				meta.Exclusions = append(meta.Exclusions, words[rng.Intn(len(words))])
			}
			recs = append(recs, corpus.NewAd(id, phrase, meta))
		}
		back, err := DecodeNode(EncodeNode(recs))
		if err != nil {
			return false
		}
		if len(recs) == 0 {
			return back == nil
		}
		return reflect.DeepEqual(recs, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics.
func TestDecodeFuzzQuick(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = DecodeNode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCorpusNodeCompression(t *testing.T) {
	// Realistic node contents from the generator still round-trip and
	// compress at least a little.
	c := corpus.Generate(corpus.GenOptions{NumAds: 200, Seed: 8})
	data := EncodeNode(c.Ads)
	back, err := DecodeNode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Ads, back) {
		t.Fatal("corpus round trip mismatch")
	}
	if len(data) >= RawSize(c.Ads) {
		t.Errorf("encoded %d B >= raw %d B", len(data), RawSize(c.Ads))
	}
}

// FuzzDecodeNode feeds DecodeNode bytes it did not write, as a node read
// back from a compressed index file would be. It never panics; what it
// refuses it refuses with ErrMalformedNode; it allocates for the records it
// decodes and nothing a count in the input merely claims; and what it
// accepts survives EncodeNode and a second decode unchanged.
func FuzzDecodeNode(f *testing.F) {
	node := EncodeNode(sampleRecords())
	f.Add(node)
	f.Add(node[:len(node)/2])
	f.Add([]byte{})
	f.Add(append(binary.AppendUvarint(nil, 1<<63), 0))                 // a prefix length int() makes negative
	f.Add([]byte{0, 1, 'x', 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // an exclusion count past the input
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := DecodeNode(data)
		runtime.ReadMemStats(&after)

		// Front coding lets a record's phrase repeat the previous one's
		// bytes, so the records' text can outgrow the input; the limit is
		// linear in both.
		text := 0
		for d := NewDecoder(data); d.More(); {
			ad, err := d.Next()
			if err != nil {
				break
			}
			text += len(ad.Phrase)
		}
		if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(data)+16*text+1<<16); spent > limit {
			t.Fatalf("%d input bytes (%d bytes of phrases) cost %d allocated bytes, limit %d", len(data), text, spent, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedNode) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		again, err := DecodeNode(EncodeNode(recs))
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("round trip: %+v -> %+v, err %v", recs, again, err)
		}
	})
}
