// Package leakcheck fails a test binary whose tests leave goroutines
// running. It compares the goroutine stacks of runtime.Stack after the
// tests with none at all: every goroutine a test started must have ended,
// apart from the testing framework's own and the current one.
//
// Wire it into a package's tests with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Grace is how long Main waits for goroutines to end before it calls them
// leaked. A goroutine that is on its way out — a hedged attempt still
// waiting on its reply, a connection handler reading the close a test's
// cleanup just sent — ends within one exchange deadline, and the tests
// checked here set theirs to at most two seconds.
const Grace = 5 * time.Second

// Main runs the tests and, if they passed, fails the binary when
// goroutines are still running Grace after the last test ended, printing
// their stacks.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := Leaked(Grace); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// Leaked polls the goroutine stacks until only the caller's and the
// testing framework's remain, or until grace has passed, and returns the
// stacks of the others.
func Leaked(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	for {
		leaked := others()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// others returns the stack of every goroutine but the calling one and
// the testing framework's.
func others() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The calling goroutine's stack comes first.
	stacks := strings.Split(string(buf), "\n\n")[1:]
	var out []string
	for _, s := range stacks {
		// A fuzzing run's coordinator watches for interrupts with
		// os/signal, whose receiving goroutine lives as long as the binary.
		if !strings.Contains(s, "os/signal.signal_recv") {
			out = append(out, s)
		}
	}
	return out
}
