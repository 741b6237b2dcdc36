package corpus

import (
	"bytes"
	"encoding/json"
	"testing"
)

// hostileStrings are the inputs encoding/json treats specially: HTML
// characters, quotes and backslashes, every control byte class, DEL,
// invalid UTF-8 (lone continuation, truncated sequence, surrogate half),
// the JSONP line separators, and ordinary multi-byte text.
var hostileStrings = []string{
	"",
	"cheap used books",
	`<script>alert("x")&amp;</script>`,
	`back\slash "quoted" 'apostrophe'`,
	"ctl \x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f end",
	"bad utf8 \x80 \xc3 \xe2\x82 \xed\xa0\x80 \xff\xfe end",
	"sep \u2028 and \u2029 end",
	"über café 本 \U0001F600",
	"\xc3",
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestAppendJSONStringGolden(t *testing.T) {
	for _, s := range hostileStrings {
		if got, want := AppendJSONString(nil, s), marshal(t, s); !bytes.Equal(got, want) {
			t.Errorf("AppendJSONString(%q) = %s, encoding/json gives %s", s, got, want)
		}
	}
	// Appending keeps what dst already held.
	if got := AppendJSONString([]byte("x="), "a<b"); string(got) != `x="a\u003cb"` {
		t.Errorf("append onto a prefix = %s", got)
	}
}

// goldenAds covers every shape of the optional parts: nil and empty Words
// and Exclusions, hostile phrases and exclusions, extreme numbers.
func goldenAds() []Ad {
	ads := []Ad{
		{},
		NewAd(1, "cheap used books", Meta{}),
		NewAd(2, "Talk Talk", Meta{CampaignID: 7, BidMicros: 1250000, ClickRate: 312, Exclusions: []string{"free", "used car"}}),
		{ID: 3, Phrase: "empty slices", Words: []string{}, Meta: Meta{Exclusions: []string{}}},
		{ID: ^uint64(0), Phrase: "extremes", Words: []string{"extremes"},
			Meta: Meta{CampaignID: ^uint32(0), BidMicros: -1 << 63, ClickRate: ^uint16(0)}},
		{ID: 5, Phrase: "max bid", Words: []string{"bid", "max"}, Meta: Meta{BidMicros: 1<<63 - 1}},
	}
	for i, s := range hostileStrings {
		ads = append(ads, Ad{ID: uint64(100 + i), Phrase: s, Words: []string{s, "w"}, Meta: Meta{Exclusions: []string{s}}})
	}
	// A copied-out ad carries its cached exclusion sets; they are not part
	// of the encoding.
	refreshed := NewAd(200, "refreshed", Meta{Exclusions: []string{"not this"}})
	refreshed.Meta.RefreshExclusionSets()
	return append(ads, refreshed)
}

func TestAppendJSONGolden(t *testing.T) {
	ads := goldenAds()
	for i := range ads {
		if got, want := ads[i].AppendJSON(nil), marshal(t, ads[i]); !bytes.Equal(got, want) {
			t.Errorf("Ad.AppendJSON = %s\nencoding/json gives %s", got, want)
		}
		if got, want := ads[i].Meta.AppendJSON(nil), marshal(t, ads[i].Meta); !bytes.Equal(got, want) {
			t.Errorf("Meta.AppendJSON = %s\nencoding/json gives %s", got, want)
		}
	}
	for _, list := range [][]Ad{nil, {}, ads[:1], ads} {
		if got, want := AppendAdsJSON(nil, list), marshal(t, list); !bytes.Equal(got, want) {
			t.Errorf("AppendAdsJSON = %s\nencoding/json gives %s", got, want)
		}
	}
	if got := string(AppendAdsJSON(nil, nil)) + string(AppendAdsJSON(nil, []Ad{})); got != "null[]" {
		t.Errorf("nil and empty ad lists encode as %q, want null then []", got)
	}
}

// FuzzAppendJSON holds the append-form encoders to encoding/json byte for
// byte on arbitrary strings in every string position of an ad.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range hostileStrings {
		f.Add(s, "w", uint64(1), int64(-5))
	}
	f.Fuzz(func(t *testing.T, phrase, word string, id uint64, bid int64) {
		ad := Ad{ID: id, Phrase: phrase, Words: []string{word, phrase},
			Meta: Meta{CampaignID: uint32(id), BidMicros: bid, ClickRate: uint16(bid), Exclusions: []string{word}}}
		if got, want := ad.AppendJSON(nil), marshal(t, ad); !bytes.Equal(got, want) {
			t.Fatalf("Ad.AppendJSON = %s\nencoding/json gives %s", got, want)
		}
		if got, want := AppendJSONString(nil, phrase), marshal(t, phrase); !bytes.Equal(got, want) {
			t.Fatalf("AppendJSONString(%q) = %s, encoding/json gives %s", phrase, got, want)
		}
	})
}
