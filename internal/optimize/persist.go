package optimize

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"adindex/internal/textnorm"
)

// Mapping persistence: Section VI recommends recomputing the optimized
// mapping periodically, potentially on a separate machine. The text format
// lets an offline optimizer (cmd/adopt) ship mappings to serving
// processes:
//
//	words-of-set<TAB>words-of-locator
//
// with words space-separated and canonical.

// WriteMapping serializes a mapping produced by the optimizer.
func WriteMapping(w io.Writer, mapping map[string][]string) error {
	bw := bufio.NewWriter(w)
	for key, loc := range mapping {
		if _, err := fmt.Fprintf(bw, "%s\t%s\n",
			strings.Join(textnorm.SplitKey(key), " "), strings.Join(loc, " ")); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrMalformedMapping is matched by errors.Is when ReadMapping refuses a
// line. (An input it could not read to the end — a line over 1 MiB, a
// failing reader — wraps the scanner's or the reader's error instead.)
var ErrMalformedMapping = errors.New("optimize: malformed mapping")

// ReadMapping parses a mapping written by WriteMapping, validating that
// every locator is a non-empty subset of its word set. The file comes from
// outside the process (adserve -mapping): what is accepted here still has
// to pass core.NewWithMapping's conditions against the corpus it is
// applied to.
func ReadMapping(r io.Reader) (map[string][]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	mapping := make(map[string][]string)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("%w: line %d: expected set<TAB>locator", ErrMalformedMapping, lineNo)
		}
		words := textnorm.CanonicalSet(strings.Fields(parts[0]))
		loc := textnorm.CanonicalSet(strings.Fields(parts[1]))
		if len(words) == 0 || len(loc) == 0 {
			return nil, fmt.Errorf("%w: line %d: empty set or locator", ErrMalformedMapping, lineNo)
		}
		if !textnorm.IsSubset(loc, words) {
			return nil, fmt.Errorf("%w: line %d: locator %v not a subset of %v",
				ErrMalformedMapping, lineNo, loc, words)
		}
		mapping[textnorm.SetKey(words)] = loc
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("optimize: reading mapping: %w", err)
	}
	return mapping, nil
}
