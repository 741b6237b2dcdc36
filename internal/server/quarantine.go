// Poison-query quarantine: a TTL'd fast-reject table of query
// fingerprints that have proven pathological — they panicked the match
// path, or repeatedly blew through their cost budget. One bad query in
// a retry loop (a crawler, a buggy client, an adversary) otherwise
// burns a full budget's worth of CPU on every arrival; quarantining the
// fingerprint turns each repeat into a hash probe and a 503.
//
// Quarantine is deliberately conservative: budget blowouts need
// repeated strikes inside one TTL window before the fingerprint is
// quarantined (heavy-but-legitimate queries recover via the strike
// decay), while a panic quarantines instantly (there is no legitimate
// panicking query). Entries expire after the TTL, so a fixed bug or a
// since-mutated index gets a fresh chance automatically.
package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for quarantine knobs.
const (
	// DefaultQuarantineStrikes is how many budget blowouts within one TTL
	// window quarantine a fingerprint.
	DefaultQuarantineStrikes = 3
	// maxQuarantineEntries caps the table so an adversary generating
	// unique pathological queries cannot grow it without bound.
	maxQuarantineEntries = 4096
)

type qEntry struct {
	strikes    int
	lastStrike time.Time
	until      time.Time // zero until quarantined
}

// Quarantine is a TTL'd poison-query table keyed by query fingerprint.
// All methods are safe for concurrent use.
type Quarantine struct {
	ttl     time.Duration
	strikes int
	now     func() time.Time

	mu      sync.Mutex
	entries map[uint64]*qEntry

	rejected    atomic.Uint64
	quarantined atomic.Uint64
}

// NewQuarantine builds a table with the given entry TTL and the default
// strike threshold. ttl <= 0 returns nil — a nil *Quarantine is valid
// and never rejects, so callers need no enablement branches.
func NewQuarantine(ttl time.Duration) *Quarantine {
	return NewQuarantineAt(ttl, DefaultQuarantineStrikes, time.Now)
}

// NewQuarantineAt exposes the strike threshold and the clock for tests.
func NewQuarantineAt(ttl time.Duration, strikes int, now func() time.Time) *Quarantine {
	if ttl <= 0 {
		return nil
	}
	if strikes < 1 {
		strikes = 1
	}
	return &Quarantine{
		ttl:     ttl,
		strikes: strikes,
		now:     now,
		entries: make(map[uint64]*qEntry),
	}
}

// fingerprint hashes the canonical query key (FNV-1a, 64-bit; no
// allocation for either key form). The handler computes it once per
// request from the key in its scratch and hands it to every call below.
func fingerprint[K cacheKeyBytes](key K) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// Check reports whether the fingerprint is currently quarantined; the
// caller should fast-reject the request without admitting it. Expired
// entries are dropped lazily on probe.
func (q *Quarantine) Check(fp uint64) bool {
	if q == nil {
		return false
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[fp]
	if !ok {
		return false
	}
	if e.until.IsZero() {
		// Striked but not quarantined; expire stale strike history.
		if now.Sub(e.lastStrike) > q.ttl {
			delete(q.entries, fp)
		}
		return false
	}
	if now.After(e.until) {
		delete(q.entries, fp)
		return false
	}
	q.rejected.Add(1)
	return true
}

// NoteBudgetBlown records one budget-exhaustion strike against the
// fingerprint; reaching the strike threshold within one TTL window
// quarantines it.
func (q *Quarantine) NoteBudgetBlown(fp uint64) {
	if q == nil {
		return
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[fp]
	if !ok {
		q.evictLocked(now)
		e = &qEntry{}
		q.entries[fp] = e
	}
	if now.Sub(e.lastStrike) > q.ttl {
		e.strikes = 0 // stale history: start a fresh window
	}
	e.strikes++
	e.lastStrike = now
	if e.strikes >= q.strikes && e.until.IsZero() {
		e.until = now.Add(q.ttl)
		q.quarantined.Add(1)
	}
}

// NotePanic quarantines the fingerprint immediately: a query that
// panicked the match path must not reach it again until the TTL lapses.
func (q *Quarantine) NotePanic(fp uint64) {
	if q == nil {
		return
	}
	now := q.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	e, ok := q.entries[fp]
	if !ok {
		q.evictLocked(now)
		e = &qEntry{}
		q.entries[fp] = e
	}
	if e.until.IsZero() || e.until.Before(now.Add(q.ttl)) {
		e.until = now.Add(q.ttl)
	}
	q.quarantined.Add(1)
}

// evictLocked keeps the table under its cap before an insert: expired
// entries go first; if none expired, one arbitrary entry is dropped
// (under active attack the table is all live attackers anyway, and
// dropping one merely re-arms its strike counter).
func (q *Quarantine) evictLocked(now time.Time) {
	if len(q.entries) < maxQuarantineEntries {
		return
	}
	for fp, e := range q.entries {
		expired := (e.until.IsZero() && now.Sub(e.lastStrike) > q.ttl) ||
			(!e.until.IsZero() && now.After(e.until))
		if expired {
			delete(q.entries, fp)
		}
	}
	if len(q.entries) >= maxQuarantineEntries {
		for fp := range q.entries {
			delete(q.entries, fp)
			break
		}
	}
}

// Len returns the current entry count (striked + quarantined).
func (q *Quarantine) Len() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// Rejected returns how many admissions Check fast-rejected; Quarantined
// how many fingerprints were ever promoted to quarantine.
func (q *Quarantine) Rejected() uint64 {
	if q == nil {
		return 0
	}
	return q.rejected.Load()
}

func (q *Quarantine) Quarantined() uint64 {
	if q == nil {
		return 0
	}
	return q.quarantined.Load()
}
