// adgen generates synthetic advertisement corpora and query workloads with
// the distributional properties of the paper's real datasets (Figures 1, 2
// and 7), in the line-oriented text formats read by cmd/adserve and the
// library's corpus/workload readers.
//
// Usage:
//
//	adgen -ads 1000000 -out corpus.tsv
//	adgen -ads 1000000 -queries 100000 -out corpus.tsv -queries-out workload.tsv
//	adgen -ads 1000000 -queries 100000 -typo-rate 0.1 -synonym-rate 0.1 \
//	      -out corpus.tsv -queries-out workload.tsv -synonyms-out synonyms.tsv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"adindex/internal/corpus"
	"adindex/internal/rewrite"
	"adindex/internal/workload"
)

func main() {
	numAds := flag.Int("ads", 100000, "number of advertisements to generate")
	numQueries := flag.Int("queries", 0, "number of distinct workload queries to generate (0 = none)")
	seed := flag.Int64("seed", 1, "generation seed")
	vocab := flag.Int("vocab", 0, "vocabulary size (0 = auto)")
	reuse := flag.Float64("reuse", 0, "word-set reuse probability (0 = default 0.45)")
	out := flag.String("out", "-", "corpus output file (- = stdout)")
	queriesOut := flag.String("queries-out", "-", "workload output file (- = stdout)")
	typoRate := flag.Float64("typo-rate", 0,
		"probability a workload query carries a one-letter typo (evaluates approximate broad match)")
	synonymRate := flag.Float64("synonym-rate", 0,
		"probability a workload query substitutes a synonym-class member")
	synonymsOut := flag.String("synonyms-out", "",
		"write the derived synonym-class TSV here (load in adserve with -synonyms)")
	advQueries := flag.Int("adversarial-queries", 0,
		"number of adversarial (maximally expensive) queries to generate (0 = none)")
	advWords := flag.Int("adversarial-words", 0,
		"words per adversarial query (0 = default 12; past 12 a query may reach the index's walk bound)")
	advOut := flag.String("adversarial-out", "-",
		"adversarial workload output file (- = stdout)")
	stats := flag.Bool("stats", false, "print distribution statistics to stderr")
	flag.Parse()

	c := corpus.Generate(corpus.GenOptions{
		NumAds:    *numAds,
		Seed:      *seed,
		VocabSize: *vocab,
		ReuseProb: *reuse,
	})
	if err := writeTo(*out, func(f *os.File) error { return c.Write(f) }); err != nil {
		log.Fatalf("writing corpus: %v", err)
	}
	if *stats {
		printStats(c)
	}
	var classes *rewrite.Classes
	if *synonymRate > 0 || *synonymsOut != "" {
		var err error
		classes, err = workload.DeriveClasses(c.Vocabulary())
		if err != nil {
			log.Fatalf("deriving synonym classes: %v", err)
		}
		if *synonymsOut != "" {
			if err := writeTo(*synonymsOut, func(f *os.File) error { return rewrite.WriteClasses(f, classes) }); err != nil {
				log.Fatalf("writing synonyms: %v", err)
			}
		}
	}
	if *numQueries > 0 {
		wl := workload.Generate(c, workload.GenOptions{
			NumQueries:  *numQueries,
			Seed:        *seed + 1,
			TypoRate:    *typoRate,
			SynonymRate: *synonymRate,
			Synonyms:    classes,
		})
		if err := writeTo(*queriesOut, func(f *os.File) error { return wl.Write(f) }); err != nil {
			log.Fatalf("writing workload: %v", err)
		}
	}
	if *advQueries > 0 {
		adv := workload.GenerateAdversarial(c, workload.AdvOptions{
			NumQueries: *advQueries,
			QueryWords: *advWords,
			Seed:       *seed + 2,
		})
		if err := writeTo(*advOut, func(f *os.File) error { return adv.Write(f) }); err != nil {
			log.Fatalf("writing adversarial workload: %v", err)
		}
	}
}

func writeTo(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printStats(c *corpus.Corpus) {
	cum := c.CumulativeLengthShare()
	fmt.Fprintf(os.Stderr, "ads=%d distinct-sets=%d vocab=%d\n",
		c.NumAds(), c.DistinctSets(), len(c.Vocabulary()))
	for l := 1; l < len(cum); l++ {
		fmt.Fprintf(os.Stderr, "  <=%2d words: %6.2f%%\n", l, cum[l]*100)
	}
}
