package rewrite

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestNewClasses(t *testing.T) {
	c, err := NewClasses([][]string{
		{"shoe", "sneaker", "trainer"},
		{"couch", "sofa"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumClasses() != 2 || c.NumWords() != 5 {
		t.Fatalf("NumClasses=%d NumWords=%d, want 2 and 5", c.NumClasses(), c.NumWords())
	}
	if got := c.Canonical("sneaker"); got != "shoe" {
		t.Errorf("Canonical(sneaker) = %q, want shoe", got)
	}
	if got := c.Canonical("sofa"); got != "couch" {
		t.Errorf("Canonical(sofa) = %q, want couch", got)
	}
	if got := c.Canonical("absent"); got != "absent" {
		t.Errorf("Canonical(absent) = %q, want absent", got)
	}
	if got := c.Alternates("shoe"); len(got) != 2 || got[0] != "sneaker" || got[1] != "trainer" {
		t.Errorf("Alternates(shoe) = %v", got)
	}
	if got := c.Alternates("sofa"); len(got) != 1 || got[0] != "couch" {
		t.Errorf("Alternates(sofa) = %v", got)
	}
	if got := c.Alternates("absent"); got != nil {
		t.Errorf("Alternates(absent) = %v, want nil", got)
	}
}

func TestNewClassesRejects(t *testing.T) {
	cases := [][][]string{
		{{"shoe"}},                             // one member
		{{"shoe", "shoe"}},                     // duplicates collapse to one
		{{"shoe", "sneaker"}, {"bag", "shoe"}}, // word in two classes
		{{"shoe", "two words"}},                // multi-word member
		{{"shoe", ""}},                         // empty member
	}
	for i, raw := range cases {
		if _, err := NewClasses(raw); err == nil {
			t.Errorf("case %d: NewClasses(%v) accepted, want error", i, raw)
		}
	}
}

func TestNewClassesNormalizes(t *testing.T) {
	c, err := NewClasses([][]string{{"Shoe", "SNEAKER"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Canonical("sneaker"); got != "shoe" {
		t.Errorf("Canonical(sneaker) = %q, want shoe (normalized)", got)
	}
}

func TestReadWriteClassesRoundTrip(t *testing.T) {
	in := "# synonyms\n" +
		"shoe\tsneaker\ttrainer\n" +
		"\n" +
		"couch\tsofa\n"
	c, err := ReadClasses(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteClasses(&buf, c); err != nil {
		t.Fatal(err)
	}
	want := "couch\tsofa\nshoe\tsneaker\ttrainer\n"
	if buf.String() != want {
		t.Fatalf("WriteClasses = %q, want %q", buf.String(), want)
	}
	c2, err := ReadClasses(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumClasses() != c.NumClasses() || c2.NumWords() != c.NumWords() {
		t.Fatalf("round trip changed table: %d/%d vs %d/%d",
			c2.NumClasses(), c2.NumWords(), c.NumClasses(), c.NumWords())
	}
}

func TestReadClassesErrors(t *testing.T) {
	for _, in := range []string{"single\n", "a\tb\nlonely\n"} {
		if _, err := ReadClasses(strings.NewReader(in)); !errors.Is(err, ErrMalformedClasses) {
			t.Errorf("ReadClasses(%q) = %v, want ErrMalformedClasses", in, err)
		}
	}
}

func TestNilClasses(t *testing.T) {
	var c *Classes
	if c.NumClasses() != 0 || c.NumWords() != 0 {
		t.Error("nil table not empty")
	}
	if c.Canonical("w") != "w" {
		t.Error("nil Canonical not identity")
	}
	if c.Alternates("w") != nil {
		t.Error("nil Alternates not nil")
	}
}
