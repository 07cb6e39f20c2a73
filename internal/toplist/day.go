// Package toplist defines the list data model shared by the simulator
// and the analyses: ranked lists, daily snapshots, multi-provider
// archives, CSV encoding, and the simulated calendar. It owns both
// sides of the snapshot contract — SnapshotSink (write) and Source
// (read) — and its three Source backends: the in-memory Archive, the
// durable on-disk DiskStore (OpenArchive), and the HTTP-backed Remote
// (OpenRemote, with the archive wire protocol it shares with
// internal/archived).
package toplist

import (
	"fmt"
	"time"
)

// Epoch is day 0 of the simulated JOINT period. The paper's JOINT
// dataset starts 2017-06-06 (a Tuesday); we anchor to the same date so
// weekday semantics line up with the paper's figures.
var Epoch = time.Date(2017, time.June, 6, 0, 0, 0, 0, time.UTC)

// Day indexes a simulated day, counted from Epoch.
type Day int

// Date returns the calendar date of d.
func (d Day) Date() time.Time { return Epoch.AddDate(0, 0, int(d)) }

// Weekday returns the calendar weekday of d.
func (d Day) Weekday() time.Weekday { return d.Date().Weekday() }

// IsWeekend reports whether d falls on a Saturday or Sunday. The paper's
// data indicates prevailing Saturday/Sunday weekends (§6.2 footnote).
func (d Day) IsWeekend() bool {
	wd := d.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// String formats d as its ISO date.
func (d Day) String() string { return d.Date().Format("2006-01-02") }

// ParseDay parses an ISO date ("2017-06-06") into a Day relative to
// Epoch. Dates before Epoch yield negative days, which callers treat as
// out of archive range. Dates more than about 292 years from Epoch are
// rejected: time.Time.Sub saturates there, so they have no Day that
// formats back to the same date.
func ParseDay(s string) (Day, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, err
	}
	d := Day(t.Sub(Epoch) / (24 * time.Hour))
	if !d.Date().Equal(t) {
		return 0, fmt.Errorf("toplist: date %s out of range", s)
	}
	return d, nil
}
