package hashindex

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"adindex/internal/core"
	"adindex/internal/corpus"
	"adindex/internal/workload"
)

func TestPersistRoundTrip(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 2000, Seed: 91})
	ix, err := Build(core.New(c.Ads, core.Options{}), Options{SuffixBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != ix.NumNodes() || back.ArenaBytes() != ix.ArenaBytes() {
		t.Fatalf("structure mismatch: nodes %d/%d arena %d/%d",
			back.NumNodes(), ix.NumNodes(), back.ArenaBytes(), ix.ArenaBytes())
	}
	// Query equivalence on a real workload.
	wl := workload.Generate(c, workload.GenOptions{NumQueries: 200, Seed: 92})
	for qi := range wl.Queries {
		q := wl.Queries[qi].Words
		a, err := ix.BroadMatch(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.BroadMatch(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("query %v: %d vs %d results after reload", q, len(a), len(b))
		}
	}
}

func TestPersistEmpty(t *testing.T) {
	ix, err := Build(core.New(nil, core.Options{}), Options{SuffixBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 0 {
		t.Errorf("NumNodes = %d", back.NumNodes())
	}
	if got, _ := back.BroadMatchText("anything", nil); len(got) != 0 {
		t.Errorf("empty reloaded index matched %v", got)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC" + "\x01"),
		[]byte(snapMagic + "\x63"), // bad version
		[]byte(snapMagic + "\x01"), // truncated after version
	}
	for i, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 100, Seed: 93})
	ix, err := Build(core.New(c.Ads, core.Options{}), Options{SuffixBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{10, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// Property: reading arbitrary bytes never panics.
func TestReadFuzzQuick(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Read(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: reading a snapshot with a flipped byte either fails or still
// yields a structurally sound index (never panics, never loops).
func TestReadBitflipQuick(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 50, Seed: 94})
	ix, err := Build(core.New(c.Ads, core.Options{}), Options{SuffixBits: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	f := func(pos uint16, val byte) bool {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[int(pos)%len(mut)] ^= val | 1
		back, err := Read(bytes.NewReader(mut))
		if err != nil {
			return true
		}
		// Loaded despite corruption: queries must not panic.
		_, _ = back.BroadMatchText("anything at all", nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// failingWriter errors after n bytes, exercising WriteTo's error paths.
type failingWriter struct{ remaining int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.remaining {
		w.remaining -= len(p)
		return len(p), nil
	}
	n := w.remaining
	w.remaining = 0
	return n, errShort
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

func TestWriteToErrorPaths(t *testing.T) {
	c := corpus.Generate(corpus.GenOptions{NumAds: 200, Seed: 95})
	ix, err := Build(core.New(c.Ads, core.Options{}), Options{SuffixBits: 12})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	total, err := ix.WriteTo(&full)
	if err != nil {
		t.Fatal(err)
	}
	// Fail at a spread of offsets; WriteTo must return an error (the
	// bufio layer may defer the failure to Flush, so the byte count is
	// not asserted).
	for _, limit := range []int{0, 4, 64, int(total) / 2, int(total) - 1} {
		if _, err := ix.WriteTo(&failingWriter{remaining: limit}); err == nil {
			t.Errorf("WriteTo with %d-byte writer should fail", limit)
		}
	}
}
