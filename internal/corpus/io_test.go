package corpus

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
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
		if err := checkAd(&ad); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %v", lineNo, err)
		}
		c.Ads = append(c.Ads, ad)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("corpus: read: %w", err)
	}
	return c, nil
}

// TestCorpusReadChunked: however the input is cut into chunks, Read
// returns the ads, or the `corpus: line N: …` error of the first bad line,
// that the line-by-line reader returned — for a file without a trailing
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
		for chunks := 1; chunks <= 9; chunks++ {
			got, err := parse(text, chunks)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s in %d chunks: error %v, line by line: %v", name, chunks, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s in %d chunks: ads differ from the line-by-line reader's (%d vs %d)", name, chunks, got.NumAds(), want.NumAds())
			}
		}
		if got, err := Read(strings.NewReader(text)); fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Read returned (%v, %v), line by line: (%v, %v)", name, got.NumAds(), err, want.NumAds(), wantErr)
		}
	}
}
