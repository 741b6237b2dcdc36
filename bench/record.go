package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// record is the one schema every run writes: where it ran, what it ran,
// and every metric by name with its unit. A record file is a JSON array
// of records; -compare reads two such files.
type record struct {
	Schema    string           `json:"schema"` // "adserve-bench/1"
	Env       environment      `json:"env"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadRecord `json:"workloads"`
}

const schemaName = "adserve-bench/1"

type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
}

func readEnvironment(root string) environment {
	env := environment{
		Commit:     "unknown", // a driver checkout is not a git repository
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(data))
	}
	return env
}

// workloadRecord is one workload's run.
type workloadRecord struct {
	Name   string        `json:"name"`
	Params spec          `json:"params"`
	Phases []phaseRecord `json:"phases"`
	// Attempted and Failed cover every measured request, both phases and
	// the writer, plus the oracle replay (a mismatch is a failure).
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Oracle    oracleResult `json:"oracle"`
	Metrics   metrics      `json:"metrics"`
	// Detail holds numbers that are recorded but are not named metrics:
	// the raw p99.9, the closed-loop latencies, the write latencies, the
	// highest percentile the open-loop sample supports.
	Detail   metrics         `json:"detail"`
	Validity []validityCheck `json:"validity,omitempty"`
	Trace    string          `json:"trace_file,omitempty"`
}

type phaseRecord struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
}

func (p *phaseResult) record() phaseRecord {
	return phaseRecord{Name: p.Name, Seconds: p.Elapsed.Seconds(),
		Sent: p.Attempts, Succeeded: p.succeeded(), Failed: p.Failed}
}

// validityCheck is one rule a workload must satisfy to measure what it
// claims to (README.md, "Validity").
type validityCheck struct {
	Rule  string  `json:"rule"`
	Value float64 `json:"value"`
	OK    bool    `json:"ok"`
}

// appendRecord adds rec to the record file at path, a JSON array.
func appendRecord(path string, rec *record) error {
	recs, err := readRecords(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	data, err := json.MarshalIndent(append(recs, *rec), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// readRecords reads every record in the file at path.
func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, r := range out {
		if r.Schema != schemaName {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, schemaName)
		}
	}
	return out, nil
}
