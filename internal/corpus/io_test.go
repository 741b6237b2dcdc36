package corpus

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// readSerial is Read as it was before it parsed in chunks — one
// bufio.Scanner with a 1 MiB buffer, line by line — kept as the reference
// the chunked reader is held to.
func readSerial(text string) (*Corpus, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	c := &Corpus{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if n := strings.Count(line, "\t"); n != 5 {
			return nil, fmt.Errorf("corpus: line %d: expected 6 tab-separated fields, got %d", lineNo, n+1)
		}
		parts := strings.SplitN(line, "\t", 6)
		id, err := strconv.ParseUint(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad id: %v", lineNo, err)
		}
		camp, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad campaign: %v", lineNo, err)
		}
		bid, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad bid: %v", lineNo, err)
		}
		ctr, err := strconv.ParseUint(parts[3], 10, 16)
		if err != nil {
			return nil, fmt.Errorf("corpus: line %d: bad click rate: %v", lineNo, err)
		}
		var excl []string
		if parts[4] != "" {
			excl = strings.Split(parts[4], ",")
		}
		ad := NewAd(id, parts[5], Meta{CampaignID: uint32(camp), BidMicros: bid, ClickRate: uint16(ctr), Exclusions: excl})
		if err := checkAd(ad.Phrase, ad.Meta.Exclusions); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %v", lineNo, err)
		}
		c.Ads = append(c.Ads, ad)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus: read: %w", err)
	}
	return c, nil
}

// TestCorpusReadChunked: whatever the reader's block size and however many
// blocks it parses side by side, and however the input arrives in reads,
// Read returns the ads, or the `corpus: line N: …` error of the first bad
// line, that the line-by-line reader returned — for a file without a trailing
// newline, with blank lines and CRLF line ends among the records, with a
// malformed line anywhere, and with a line at the old scanner's 1 MiB
// limit.
func TestCorpusReadChunked(t *testing.T) {
	var buf bytes.Buffer
	if err := testCorpus(t, 120).Write(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	lines := strings.SplitAfter(good, "\n")
	lines = lines[:len(lines)-1] // the empty tail after the last newline

	inputs := map[string]string{
		"empty":               "",
		"one newline":         "\n",
		"plain":               good,
		"no trailing newline": strings.TrimSuffix(good, "\n"),
		"blank lines":         "\n\n" + strings.Join(lines, "\n") + "\n\n",
		"crlf":                strings.ReplaceAll(good, "\n", "\r\n"),
		"only blank lines":    "\n\r\n\n",
	}
	// One malformed line at a time, at every position, the way each
	// refusal of the reader is reached.
	for i := range lines {
		bad := []string{"x" + lines[i], "\t" + lines[i], strings.Replace(lines[i], "\t", "\t-", 1),
			strings.TrimSuffix(lines[i], "\n") + "\rz\n", "9\t9\t9\t99999999\t\tphrase\n", "1\t2\t3\t4\t,,\tp\n"}
		mutated := append(append(append([]string(nil), lines[:i]...), bad[i%len(bad)]), lines[i+1:]...)
		inputs[fmt.Sprintf("bad line %d", i+1)] = strings.Join(mutated, "")
		// A second bad line later on must not be the one reported.
		if i+7 < len(lines) {
			mutated[i+7] = "nonsense\n"
			inputs[fmt.Sprintf("bad lines %d and %d", i+1, i+8)] = strings.Join(mutated, "")
		}
	}
	// The scanner held a line only together with the byte ending it.
	record := func(n int) string { return "7\t1\t5\t9\t\t" + strings.Repeat("a", n-len("7\t1\t5\t9\t\t")) }
	inputs["line at the limit"] = lines[0] + record(1<<20-1) + "\n" + lines[1]
	inputs["line at the limit, unterminated"] = lines[0] + record(1<<20-1)
	inputs["line over the limit"] = lines[0] + record(1<<20) + "\n" + lines[1]
	inputs["line over the limit, unterminated"] = lines[0] + record(1<<20)
	inputs["bad line before one over the limit"] = "oops\n" + record(1<<20) + "\n"

	for name, text := range inputs {
		want, wantErr := readSerial(text)
		for _, blockSize := range []int{1, 7, 100, 4096, readBlock} {
			for workers := 1; workers <= 3; workers++ {
				cols, err := readColumns(iotest.HalfReader(strings.NewReader(text)), blockSize, workers)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s in %d-byte blocks by %d workers: error %v, line by line: %v", name, blockSize, workers, err, wantErr)
				}
				if err != nil {
					continue
				}
				if got := (&Corpus{Ads: cols.Ads()}); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s in %d-byte blocks by %d workers: ads differ from the line-by-line reader's (%d vs %d)",
						name, blockSize, workers, got.NumAds(), want.NumAds())
				}
			}
		}
		if got, err := Read(strings.NewReader(text)); fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Read returned (%v, %v), line by line: (%v, %v)", name, got.NumAds(), err, want.NumAds(), wantErr)
		}
	}
}

// statFile is a reader that says it is a regular file of size bytes,
// whatever it holds.
type statFile struct {
	io.Reader
	size int64
}

func (f statFile) Stat() (fs.FileInfo, error) { return statInfo(f.size), nil }

type statInfo int64

func (s statInfo) Name() string       { return "corpus.tsv" }
func (s statInfo) Size() int64        { return int64(s) }
func (s statInfo) Mode() fs.FileMode  { return 0o644 }
func (s statInfo) ModTime() time.Time { return time.Time{} }
func (s statInfo) IsDir() bool        { return false }
func (s statInfo) Sys() any           { return nil }

// TestReadAllocatesByWhatItRead: Read sizes its buffers by the bytes it
// has read, not by the size a file reports, so a file that says it holds
// more than memory (or, on a 32-bit platform, more than an int counts) is
// read for what it holds.
func TestReadAllocatesByWhatItRead(t *testing.T) {
	c, err := Read(statFile{strings.NewReader("1\t2\t3\t4\t\tcheap flights\n"), 1 << 50})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumAds() != 1 || c.Ads[0].Phrase != "cheap flights" {
		t.Fatalf("read %+v", c.Ads)
	}
}

// liveHeap returns the live heap after two collections: the second one
// finishes sweeping what the first found dead.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestColumnsHeapBytesPerAd: the reader's columns hold no Go pointer per
// ad: fixed-width fields, word IDs, the phrase and exclusion bytes and one
// vocabulary, at most 80 live heap bytes per ad of the generated corpus.
// (Its expansion into []Ad, which Read returns, holds about 190.)
func TestColumnsHeapBytesPerAd(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments the heap")
	}
	const n = 100_000
	var buf bytes.Buffer
	if err := Generate(GenOptions{NumAds: n, Seed: 1}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	before := liveHeap()
	cols, err := ReadColumns(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	perAd := float64(after-before) / n
	c, err := Read(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	ads := float64(liveHeap()-after) / n
	t.Logf("columns %.1f B/ad (text %.1f, words %.1f, vocabulary of %d); []Ad %.1f B/ad",
		perAd, float64(len(cols.Text))/n, float64(4*len(cols.WordIDs))/n, len(cols.Words), ads)
	if cols.Len() != n || c.NumAds() != n {
		t.Fatalf("read %d and %d ads, want %d", cols.Len(), c.NumAds(), n)
	}
	if perAd > 80 {
		t.Errorf("the columns hold %.1f live heap bytes per ad, want <= 80", perAd)
	}
	runtime.KeepAlive(text)
	runtime.KeepAlive(cols)
	runtime.KeepAlive(c)
}
