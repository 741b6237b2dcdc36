package rewrite

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"adindex/internal/textnorm"
)

// Classes is a synonym table: words grouped into equivalence classes, each
// with a canonical representative (the quotient-space view — retrieval
// treats all members of a class as the same keyword, and the planner
// substitutes class members for query words). A nil *Classes is a valid
// empty table.
type Classes struct {
	classes []synClass
	byWord  map[string]int // member -> index into classes
}

type synClass struct {
	canonical string
	members   []string // sorted, distinct; includes the canonical form
}

// ErrMalformedClasses is matched by errors.Is when NewClasses or
// ReadClasses refuses a table. (An input ReadClasses could not read to the
// end — a line over 1 MiB, a failing reader — wraps the scanner's or the
// reader's error instead.)
var ErrMalformedClasses = errors.New("rewrite: malformed synonym classes")

// NewClasses builds a synonym table. Each inner slice is one class; the
// first member is the canonical representative. Members are normalized
// with the index's tokenizer and must each normalize to exactly one word;
// a word may belong to at most one class. Classes with fewer than two
// distinct members are rejected (they rewrite nothing).
func NewClasses(classes [][]string) (*Classes, error) {
	c := &Classes{byWord: make(map[string]int)}
	for ci, raw := range classes {
		var cls synClass
		seen := make(map[string]bool, len(raw))
		for mi, m := range raw {
			ws := textnorm.WordSet(m)
			if len(ws) != 1 {
				return nil, fmt.Errorf("%w: class %d: member %q does not normalize to a single word", ErrMalformedClasses, ci, m)
			}
			w := ws[0]
			if seen[w] {
				continue
			}
			seen[w] = true
			if prev, dup := c.byWord[w]; dup {
				return nil, fmt.Errorf("%w: word %q appears in class %d and class %d", ErrMalformedClasses, w, prev, ci)
			}
			if mi == 0 || cls.canonical == "" {
				cls.canonical = w
			}
			cls.members = append(cls.members, w)
		}
		if len(cls.members) < 2 {
			return nil, fmt.Errorf("%w: class %d needs at least two distinct members", ErrMalformedClasses, ci)
		}
		sort.Strings(cls.members)
		idx := len(c.classes)
		c.classes = append(c.classes, cls)
		for _, w := range cls.members {
			c.byWord[w] = idx
		}
	}
	return c, nil
}

// ReadClasses parses the TSV synonym format: one class per line, members
// separated by tabs, the first member canonical. Blank lines and lines
// starting with '#' are skipped.
func ReadClasses(r io.Reader) (*Classes, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var raw [][]string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var members []string
		for _, f := range strings.Split(line, "\t") {
			if f = strings.TrimSpace(f); f != "" {
				members = append(members, f)
			}
		}
		if len(members) < 2 {
			return nil, fmt.Errorf("%w: line %d: a class needs at least two members", ErrMalformedClasses, lineNo)
		}
		raw = append(raw, members)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rewrite: read classes: %w", err)
	}
	return NewClasses(raw)
}

// WriteClasses serializes the table in the format read by ReadClasses,
// one class per line with the canonical member first and the remaining
// members sorted, classes ordered by canonical member.
func WriteClasses(w io.Writer, c *Classes) error {
	bw := bufio.NewWriter(w)
	order := make([]int, 0, c.NumClasses())
	for i := range c.classes {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool {
		return c.classes[order[a]].canonical < c.classes[order[b]].canonical
	})
	for _, i := range order {
		cls := &c.classes[i]
		bw.WriteString(cls.canonical)
		for _, m := range cls.members {
			if m == cls.canonical {
				continue
			}
			bw.WriteByte('\t')
			bw.WriteString(m)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// NumClasses returns the number of classes (0 for a nil table).
func (c *Classes) NumClasses() int {
	if c == nil {
		return 0
	}
	return len(c.classes)
}

// NumWords returns the total number of words across all classes.
func (c *Classes) NumWords() int {
	if c == nil {
		return 0
	}
	return len(c.byWord)
}

// Canonical returns the canonical representative of w's class, or w
// itself when w belongs to no class.
func (c *Classes) Canonical(w string) string {
	if c == nil {
		return w
	}
	if i, ok := c.byWord[w]; ok {
		return c.classes[i].canonical
	}
	return w
}

// Alternates returns the other members of w's class in sorted order, or
// nil when w belongs to no class.
func (c *Classes) Alternates(w string) []string {
	if c == nil {
		return nil
	}
	i, ok := c.byWord[w]
	if !ok {
		return nil
	}
	members := c.classes[i].members
	alts := make([]string, 0, len(members)-1)
	for _, m := range members {
		if m != w {
			alts = append(alts, m)
		}
	}
	return alts
}
