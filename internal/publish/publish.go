// Package publish owns the publication half of every serving mode.
// AMS synopses are linear, so snapshot serving, the sliding window and
// the cluster coordinator all build a frozen engine (a clone, a merge
// of live slices, a merge of shard pulls) and publish it for lock-free
// reads. The builder builds; a Publisher holds the published State,
// the count cadence that says when the next build is due, and at most
// one ticker goroutine for a clock cadence.
package publish

import (
	"sync/atomic"
	"time"
)

// State is one published frozen state plus its provenance. Never
// mutated after Publish, so any number of readers may use Value.
type State[V any] struct {
	Value V         // the frozen state
	Trees int64     // trees it covers
	Parts int       // inputs merged into it: slices or shards; 1 for a clone
	Built time.Time // when it was built, on the builder's clock

	// Version orders the inputs the state was built from; builders that
	// build under a lock that also orders their inputs leave it 0.
	Version int64

	Seq int64 // states published so far, this one included; set by Publish
}

// Publisher serves the latest published State. Construct with New; do
// not copy.
type Publisher[V any] struct {
	cur   atomic.Pointer[State[V]]
	every int64        // count cadence; <= 0 disables it
	since atomic.Int64 // updates noted since the last publish

	stop, done chan struct{} // bracket the ticker goroutine; nil without one
}

// New returns an empty Publisher whose count cadence makes a publish
// due every `every` updates (never when <= 0).
func New[V any](every int) *Publisher[V] {
	return &Publisher[V]{every: int64(every)}
}

// Load returns the served state, or nil before the first Publish.
//
//lint:hotpath
func (p *Publisher[V]) Load() *State[V] { return p.cur.Load() }

// Publish installs s unless the served state was built from newer
// inputs (a higher Version), so a build that finishes late never
// replaces a fresher one. It stamps s.Seq, restarts the count cadence
// and reports whether s was installed.
func (p *Publisher[V]) Publish(s State[V]) bool {
	for {
		cur := p.cur.Load()
		s.Seq = 1
		if cur != nil {
			if s.Version < cur.Version {
				return false
			}
			s.Seq = cur.Seq + 1
		}
		next := s
		if p.cur.CompareAndSwap(cur, &next) {
			p.since.Store(0)
			return true
		}
	}
}

// Note counts one update and reports whether a publish is due. It
// stays due until the next Publish, so a failed build is retried.
//
//lint:hotpath
func (p *Publisher[V]) Note() bool {
	return p.every > 0 && p.since.Add(1) >= p.every
}

// Pending reports whether updates were noted since the last publish.
func (p *Publisher[V]) Pending() bool { return p.since.Load() > 0 }

// Tick starts the clock cadence: one goroutine calls fn every period
// until Close. Call it at most once; Tick and Close are the owner's
// and never run concurrently.
func (p *Publisher[V]) Tick(period time.Duration, fn func()) {
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go tick(period, fn, p.stop, p.done)
}

// Close stops the ticker goroutine, if any, and waits for an fn call
// in progress to return. The served state stays readable.
func (p *Publisher[V]) Close() {
	if p.stop == nil {
		return
	}
	close(p.stop)
	<-p.done
	p.stop = nil
}

func tick(period time.Duration, fn func(), stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			fn()
		}
	}
}
