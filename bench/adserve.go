package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"adindex"
	"adindex/internal/server"
)

// buildAdserve compiles cmd/adserve from the checkout at root into
// outDir and returns the binary's path.
func buildAdserve(ctx context.Context, root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "adserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/adserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/adserve: %v\n%s", err, out)
	}
	return bin, nil
}

var listenRE = regexp.MustCompile(`listening on http://(\S+)`)

// adserve is one spawned server process.
type adserve struct {
	cmd     *exec.Cmd
	addr    string        // host:port parsed from the "listening on" line
	setup   time.Duration // exec → first 200 on /readyz
	dataDir string        // removed by kill; "" when not durable
	logTail *tailBuffer
	exited  chan struct{}
}

// tailBuffer keeps the last lines of the server log for error reports.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// spawn starts adserve on a free loopback port and waits for /readyz.
// The port is always 127.0.0.1:0, read back from the server's own log
// line. The caller must call kill on every path.
func spawn(ctx context.Context, bin, corpusPath string, sp spec, workDir string) (*adserve, error) {
	args := []string{"-corpus", corpusPath, "-addr", "127.0.0.1:0"}
	args = append(args, sp.ServerArgs...)
	a := &adserve{logTail: &tailBuffer{}, exited: make(chan struct{})}
	if sp.Durable {
		dir, err := os.MkdirTemp(workDir, "data-")
		if err != nil {
			return nil, err
		}
		a.dataDir = dir
		args = append(args, "-data-dir", dir)
	}
	a.cmd = exec.Command(bin, args...)
	stderr, err := a.cmd.StderrPipe()
	if err != nil {
		a.removeData()
		return nil, err
	}
	start := time.Now()
	if err := a.cmd.Start(); err != nil {
		a.removeData()
		return nil, fmt.Errorf("start adserve: %w", err)
	}
	addrCh := make(chan string, 1)
	go func() {
		defer close(a.exited)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			a.logTail.add(line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		a.cmd.Wait() // the pipe is drained; reap the child
	}()

	const startTimeout = 120 * time.Second
	deadline := time.NewTimer(startTimeout)
	defer deadline.Stop()
	poll := time.NewTicker(2 * time.Millisecond)
	defer poll.Stop()
	for {
		var failure error
		select {
		case a.addr = <-addrCh:
		case <-poll.C:
			if a.addr == "" {
				continue
			}
			if code, _ := a.get("/readyz", nil); code == http.StatusOK {
				a.setup = time.Since(start)
				return a, nil
			}
		case <-a.exited:
			failure = errors.New("exited before it was ready")
		case <-deadline.C:
			failure = fmt.Errorf("was not ready within %v", startTimeout)
		case <-ctx.Done():
			failure = ctx.Err()
		}
		if failure != nil {
			a.kill()
			return nil, fmt.Errorf("adserve %w; its log ends:\n%s", failure, a.logTail)
		}
	}
}

func (a *adserve) removeData() {
	if a.dataDir != "" {
		os.RemoveAll(a.dataDir)
	}
}

// kill ends the server — no graceful drain: nothing it holds is worth
// flushing —, waits until it has exited, and removes its data directory.
// Safe to call more than once.
func (a *adserve) kill() {
	a.cmd.Process.Kill()
	<-a.exited
	a.removeData()
}

var scrapeClient = &http.Client{Timeout: 30 * time.Second}

// get fetches path from the server's control surface (probes and
// scrapes, never the measured load) and decodes a JSON body into v when
// v is non-nil.
func (a *adserve) get(path string, v any) (int, error) {
	resp, err := scrapeClient.Get("http://" + a.addr + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v == nil || resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

func (a *adserve) metrics() (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	code, err := a.get("/metrics", &m)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/metrics answered %d", code)
	}
	return m, err
}

// stats scrapes /stats. On a local index this folds any pending overlay,
// so it is only called after the measured phases.
func (a *adserve) stats() (adindex.Stats, error) {
	var s adindex.Stats
	code, err := a.get("/stats", &s)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/stats answered %d", code)
	}
	return s, err
}

// peakRSSMiB reads the server's high-water resident set (VmHWM) from
// /proc.
func (a *adserve) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", a.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", a.cmd.Process.Pid)
}
