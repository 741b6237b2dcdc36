package main

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestDocListsExperiments holds the package comment's experiment list to
// the experiments table: same ids, same descriptions, same order.
func TestDocListsExperiments(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(f.Doc.Text(), "Experiments (")
	if !ok {
		t.Fatal("package comment has no Experiments section")
	}
	var documented []string
	for _, line := range strings.Split(list, "\n")[1:] {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break // the paragraph after the list
		}
		documented = append(documented, strings.Join(strings.Fields(line), " "))
	}
	var registered []string
	for _, e := range experiments {
		registered = append(registered, e.id+" "+e.what)
	}
	if got, want := strings.Join(documented, "\n"), strings.Join(registered, "\n"); got != want {
		t.Fatalf("package comment lists\n%s\nbut the experiments table is\n%s", got, want)
	}
}

// TestExperimentsSmoke runs every experiment at toy size. Nothing else
// in the tree executes the paper-figure code, so an API change in core,
// optimize or multiserver that compiles but fails at run time (must →
// log.Fatal exits the test binary) is caught here.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all thirteen experiments")
	}
	if !testing.Verbose() {
		null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		stdout := os.Stdout
		os.Stdout = null
		defer func() { os.Stdout = stdout; null.Close() }()
	}
	cfg := config{ads: 2000, queries: 200, stream: 500, seed: 1}
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) { e.run(cfg) })
	}
}
