package textnorm

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"cheap used books", []string{"cheap", "used", "books"}},
		{"Cheap USED Books", []string{"cheap", "used", "books"}},
		{"rock'n'roll", []string{"rock'n'roll"}},
		{"hello, world!", []string{"hello", "world"}},
		{"4k tv 2024", []string{"4k", "tv", "2024"}},
		{"  leading and trailing  ", []string{"leading", "and", "trailing"}},
		{"hyphen-ated words", []string{"hyphen", "ated", "words"}},
		{"tabs\tand\nnewlines", []string{"tabs", "and", "newlines"}},
		{"über café", []string{"über", "café"}},
		{"a", []string{"a"}},
		{"!!!", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFoldDuplicates(t *testing.T) {
	cases := []struct {
		in   []string
		want []string
	}{
		{nil, nil},
		{[]string{"talk"}, []string{"talk"}},
		{[]string{"talk", "talk"}, []string{"talk_talk"}},
		{[]string{"talk", "talk", "talk"}, []string{"talk_talk_talk"}},
		{[]string{"new", "york", "new", "york"}, []string{"new_new", "york_york"}},
		{[]string{"a", "b", "a"}, []string{"a_a", "b"}},
		{[]string{"x", "y", "z"}, []string{"x", "y", "z"}},
	}
	for _, c := range cases {
		got := FoldDuplicates(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("FoldDuplicates(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFoldDuplicatesDistinguishesMultiplicity(t *testing.T) {
	// "talk" must not broad-match "talk talk": their canonical sets differ.
	single := WordSet("talk")
	double := WordSet("talk talk")
	if slices.Equal(single, double) {
		t.Fatalf("multiplicity lost: %v == %v", single, double)
	}
	if IsSubset(double, single) {
		t.Fatalf("%v should not be a subset of %v", double, single)
	}
}

func TestWordSet(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"cheap used books", []string{"books", "cheap", "used"}},
		{"Books CHEAP books", []string{"books_books", "cheap"}},
		{"b a c", []string{"a", "b", "c"}},
	}
	for _, c := range cases {
		got := WordSet(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("WordSet(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestCanonicalSet(t *testing.T) {
	in := []string{"c", "a", "b", "a", "c"}
	want := []string{"a", "b", "c"}
	got := CanonicalSet(in)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CanonicalSet(%v) = %v, want %v", in, got, want)
	}
	// Input must not be mutated.
	if !reflect.DeepEqual(in, []string{"c", "a", "b", "a", "c"}) {
		t.Errorf("CanonicalSet mutated its input: %v", in)
	}
	if CanonicalSet(nil) != nil {
		t.Errorf("CanonicalSet(nil) should be nil")
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		sub, super []string
		want       bool
	}{
		{nil, nil, true},
		{nil, []string{"a"}, true},
		{[]string{"a"}, nil, false},
		{[]string{"a"}, []string{"a"}, true},
		{[]string{"a"}, []string{"a", "b"}, true},
		{[]string{"b"}, []string{"a", "b"}, true},
		{[]string{"a", "b"}, []string{"a", "b", "c"}, true},
		{[]string{"a", "c"}, []string{"a", "b", "c"}, true},
		{[]string{"a", "d"}, []string{"a", "b", "c"}, false},
		{[]string{"a", "b", "c"}, []string{"a", "b"}, false},
		{[]string{"books", "used"}, []string{"books", "cheap", "used"}, true},
		{[]string{"comic"}, []string{"books", "cheap", "used"}, false},
	}
	for _, c := range cases {
		if got := IsSubset(c.sub, c.super); got != c.want {
			t.Errorf("IsSubset(%v, %v) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestSetKeyRoundTrip(t *testing.T) {
	sets := [][]string{
		nil,
		{"a"},
		{"a", "b", "c"},
		{"books", "cheap", "used"},
	}
	for _, s := range sets {
		key := SetKey(s)
		back := SplitKey(key)
		if !slices.Equal(s, back) {
			t.Errorf("round trip failed for %v: key=%q back=%v", s, key, back)
		}
	}
}

func TestSetKeyInjective(t *testing.T) {
	a := SetKey([]string{"ab", "c"})
	b := SetKey([]string{"a", "bc"})
	if a == b {
		t.Fatalf("SetKey not injective: %q", a)
	}
}

// Property: IsSubset agrees with a map-based reference implementation.
func TestIsSubsetQuick(t *testing.T) {
	ref := func(sub, super []string) bool {
		m := make(map[string]bool)
		for _, w := range super {
			m[w] = true
		}
		for _, w := range sub {
			if !m[w] {
				return false
			}
		}
		return true
	}
	gen := func(r *rand.Rand) []string {
		n := r.Intn(6)
		words := make([]string, n)
		for i := range words {
			words[i] = string(rune('a' + r.Intn(8)))
		}
		return CanonicalSet(words)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sub, super := gen(r), gen(r)
		return IsSubset(sub, super) == ref(sub, super)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: WordSet output is always sorted and deduplicated.
func TestWordSetCanonicalQuick(t *testing.T) {
	f := func(s string) bool {
		ws := WordSet(s)
		if !sort.StringsAreSorted(ws) {
			return false
		}
		for i := 1; i < len(ws); i++ {
			if ws[i] == ws[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: folding preserves total multiplicity information — two token
// sequences with equal multisets fold to equal sets, and unequal multisets
// of the same support fold to unequal sets.
func TestFoldDuplicatesMultisetQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = string(rune('a' + r.Intn(3)))
		}
		shuffled := make([]string, n)
		copy(shuffled, toks)
		r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		a := CanonicalSet(FoldDuplicates(toks))
		b := CanonicalSet(FoldDuplicates(shuffled))
		return slices.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestTokenizePreservesOrder(t *testing.T) {
	got := Tokenize("zebra apple mango")
	want := []string{"zebra", "apple", "mango"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize order: got %v want %v", got, want)
	}
}

func TestFoldedTokenJoin(t *testing.T) {
	got := FoldDuplicates([]string{"go", "go", "go", "go"})
	if len(got) != 1 || got[0] != "go_go_go_go" {
		t.Errorf("got %v", got)
	}
	if strings.Count(got[0], "_") != 3 {
		t.Errorf("expected 3 separators in %q", got[0])
	}
}

// referenceWordSet is the pre-append-path implementation of WordSet:
// tokenize, fold duplicates, canonicalize. AppendWordSet must agree with
// it on every input.
func referenceWordSet(s string) []string {
	return CanonicalSet(FoldDuplicates(Tokenize(s)))
}

func TestAppendWordSetMatchesReference(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"used books",
		"Used BOOKS",
		"talk talk",
		"talk talk talk",
		"cheap cheap used used books",
		"a_b c", // underscore is a separator, not a word rune
		"don't stop don't stop",
		"ünïcode Ünïcode",
		"digits 99 digits 99",
		"z y x w v u t s",
		"mixed CASE mixed case MIXED",
		"apostrophe's apostrophe's twin",
		"0 0_0 0", // folded "0_0" collides with a literal token
	}
	for _, s := range cases {
		want := referenceWordSet(s)
		got := AppendWordSet(nil, s)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("AppendWordSet(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestAppendWordSetReusesBuffer(t *testing.T) {
	buf := make([]string, 0, 16)
	a := AppendWordSet(buf, "cheap used books")
	if &a[0] != &buf[:1][0] {
		t.Fatal("AppendWordSet did not write into the provided buffer")
	}
	// Appending after a mark preserves the prefix.
	pre := append(buf[:0], "prefix")
	b := AppendWordSet(pre, "used books")
	if b[0] != "prefix" || !reflect.DeepEqual(b[1:], []string{"books", "used"}) {
		t.Fatalf("prefix clobbered: %v", b)
	}
}

func TestAppendTokensMatchesTokenize(t *testing.T) {
	cases := []string{"", "Used Books!", "a,b;c", "ünïcode RÄT", "don't", "x"}
	for _, s := range cases {
		want := Tokenize(s)
		got := AppendTokens(nil, s)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("AppendTokens(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestAppendWordSetZeroAllocLowercaseASCII(t *testing.T) {
	buf := make([]string, 0, 16)
	allocs := testing.AllocsPerRun(200, func() {
		buf = AppendWordSet(buf[:0], "cheap used books today")
	})
	if allocs != 0 {
		t.Fatalf("AppendWordSet allocates %.1f objects/op on lowercase ASCII, want 0", allocs)
	}
}

func TestContainsContiguousExported(t *testing.T) {
	if !ContainsContiguous([]string{"a", "b", "c"}, []string{"b", "c"}) {
		t.Fatal("contiguous needle not found")
	}
	if ContainsContiguous([]string{"a", "b", "c"}, []string{"a", "c"}) {
		t.Fatal("non-contiguous needle reported found")
	}
	if !ContainsContiguous([]string{"a"}, nil) {
		t.Fatal("empty needle must match")
	}
}

// TestFoldTokensAndAppendSetKey: the two halves callers use to tokenize
// once — folding a token sequence they already hold, and building the set
// key in their own buffer — agree with WordSet and SetKey.
func TestFoldTokensAndAppendSetKey(t *testing.T) {
	for _, s := range []string{"", "!!!", "cheap used books", "Talk talk show", "b a b a c", "a a_a a"} {
		tokens := Tokenize(s)
		set := FoldTokens(append([]string{"prefix"}, tokens...), 1)
		if set[0] != "prefix" || !slices.Equal(set[1:], WordSet(s)) {
			t.Errorf("FoldTokens(tokens of %q) = %v, WordSet gives %v", s, set, WordSet(s))
		}
		if !slices.Equal(tokens, Tokenize(s)) {
			t.Errorf("FoldTokens on a copy disturbed the token sequence of %q", s)
		}
		if got := string(AppendSetKey([]byte("b\x00"), set[1:])); got != "b\x00"+SetKey(WordSet(s)) {
			t.Errorf("AppendSetKey(%q) = %q, SetKey gives %q", s, got, SetKey(WordSet(s)))
		}
	}
}
