package publish

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestPublishStampsSeqAndRefusesOlderVersions(t *testing.T) {
	p := New[string](0)
	if p.Load() != nil {
		t.Fatal("state published before the first Publish")
	}
	if !p.Publish(State[string]{Value: "a", Version: 2}) {
		t.Fatal("first publish refused")
	}
	if !p.Publish(State[string]{Value: "b", Version: 2}) {
		t.Fatal("an equal version must publish (same inputs, rebuilt)")
	}
	if p.Publish(State[string]{Value: "old", Version: 1}) {
		t.Fatal("an older version replaced a newer one")
	}
	sv := p.Load()
	if sv.Value != "b" || sv.Seq != 2 || sv.Version != 2 {
		t.Fatalf("served %+v, want value b, seq 2, version 2", sv)
	}
}

func TestNoteCadence(t *testing.T) {
	p := New[int](3)
	for i := 1; i <= 2; i++ {
		if p.Note() {
			t.Fatalf("update %d of 3 reported due", i)
		}
	}
	if !p.Pending() {
		t.Fatal("noted updates not pending")
	}
	if !p.Note() {
		t.Fatal("third update not due")
	}
	if !p.Note() {
		t.Fatal("the cadence must stay due until a publish (a failed build retries)")
	}
	p.Publish(State[int]{})
	if p.Pending() || p.Note() {
		t.Fatal("publish did not restart the count")
	}

	off := New[int](-1)
	for i := 0; i < 5; i++ {
		if off.Note() {
			t.Fatal("a disabled cadence reported due")
		}
	}
}

func TestTickRunsUntilClose(t *testing.T) {
	p := New[int](0)
	p.Close() // no ticker: a no-op
	var n atomic.Int64
	p.Tick(time.Millisecond, func() { n.Add(1) })
	deadline := time.Now().Add(5 * time.Second)
	for n.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.Load() < 3 {
		t.Fatal("ticker did not run")
	}
	p.Close()
	after := n.Load()
	time.Sleep(10 * time.Millisecond)
	if n.Load() != after {
		t.Fatal("ticker kept running after Close returned")
	}
	p.Close() // a second Close is a no-op
}
