// adfsck verifies (and optionally repairs) an adserve durable state
// directory: the checksummed snapshot generations and write-ahead logs
// written by -data-dir mode.
//
// Usage:
//
//	adfsck [-repair] [-json] DIR
//
// For each snapshot it checks the magic/version/header CRC and every
// section CRC; for each WAL it walks the frames, verifying lengths and
// payload CRCs. Nothing is modified unless -repair is given, which makes
// the disk changes adserve -allow-partial-recovery would make on start:
// it deletes leftover .tmp files, truncates the WAL where replay stops to
// its last valid frame, and removes the WALs and snapshots after that
// point, whose records assume the lost region. A corrupt snapshot that
// recovery skips for an older generation stays on disk; -repair refuses,
// as recovery does, a directory where no snapshot generation verifies.
//
// Exit codes (the worst problem found, snapshots taking priority):
//
//	0  directory is fully consistent (or empty)
//	1  usage / I/O error
//	2  snapshot header corrupt (bad magic, version, or header CRC)
//	3  snapshot section payload corrupt (CRC or decode failure)
//	4  snapshot truncated (ends before a promised section)
//	5  WAL torn tail (ends mid-frame; -repair truncates it)
//	6  WAL record corrupt (bit flip inside a complete frame; -repair
//	   truncates from the bad frame on)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"adindex/internal/durable"
)

// exitCode maps a corruption class to the documented exit code.
func exitCode(c durable.Corruption) int {
	switch c {
	case durable.CorruptNone:
		return 0
	case durable.CorruptHeader:
		return 2
	case durable.CorruptSectionCRC:
		return 3
	case durable.CorruptSnapTruncated:
		return 4
	case durable.CorruptWALTorn:
		return 5
	case durable.CorruptWALRecord:
		return 6
	default:
		return 1
	}
}

func main() {
	repair := flag.Bool("repair", false,
		"make the disk changes adserve -allow-partial-recovery would make: truncate the WAL where replay stops, remove the files after it and leftover .tmp files")
	asJSON := flag.Bool("json", false, "emit the full report as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: adfsck [-repair] [-json] DIR\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(1)
	}
	dir := flag.Arg(0)

	var repaired *durable.RepairResult
	if *repair {
		var err error
		repaired, err = durable.Repair(nil, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adfsck: repair: %v\n", err)
			os.Exit(1)
		}
	}
	rep, err := durable.Fsck(nil, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adfsck: %v\n", err)
		os.Exit(1)
	}

	if *asJSON {
		out := struct {
			*durable.FsckReport
			Repaired *durable.RepairResult `json:"repaired,omitempty"`
		}{rep, repaired}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	} else {
		printReport(rep, repaired)
	}

	worst, _ := rep.Worst()
	os.Exit(exitCode(worst))
}

func printReport(rep *durable.FsckReport, repaired *durable.RepairResult) {
	if rep.Empty {
		fmt.Printf("%s: empty (no durable state)\n", rep.Dir)
		return
	}
	for _, f := range rep.Snapshots {
		if f.Class == durable.CorruptNone {
			fmt.Printf("%-28s ok    gen %d, %d ads, epoch %d\n", f.Name, f.Gen, f.Ads, f.Epoch)
		} else {
			fmt.Printf("%-28s %s: %s\n", f.Name, f.Status, f.Detail)
		}
	}
	for _, f := range rep.WALs {
		if f.Class == durable.CorruptNone {
			fmt.Printf("%-28s ok    gen %d, %d records, %d bytes\n", f.Name, f.Gen, f.Records, f.TotalBytes)
		} else {
			fmt.Printf("%-28s %s: %s (%d of %d bytes valid, %d records)\n",
				f.Name, f.Status, f.Detail, f.ValidBytes, f.TotalBytes, f.Records)
		}
	}
	for _, tmp := range rep.TmpFiles {
		fmt.Printf("%-28s leftover temp file (crash debris; -repair removes it)\n", tmp)
	}
	if repaired != nil {
		for _, w := range repaired.TruncatedWALs {
			fmt.Printf("repaired: truncated %s (-%d bytes total)\n", w, repaired.TruncatedBytes)
		}
		for _, name := range append(repaired.Removed, repaired.RemovedTmp...) {
			fmt.Printf("repaired: removed %s\n", name)
		}
	}
	if worst, detail := rep.Worst(); worst != durable.CorruptNone {
		fmt.Printf("WORST: %s — %s\n", worst, detail)
	}
}
