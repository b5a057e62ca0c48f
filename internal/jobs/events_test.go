package jobs

import (
	"testing"
	"time"
)

// collect drains events from ch until n are seen or the deadline passes.
func collect(t *testing.T, ch <-chan Event, n int) []Event {
	t.Helper()
	var evs []Event
	deadline := time.After(5 * time.Second)
	for len(evs) < n {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("channel closed after %d/%d events", len(evs), n)
			}
			evs = append(evs, ev)
		case <-deadline:
			t.Fatalf("timed out after %d/%d events", len(evs), n)
		}
	}
	return evs
}

func TestEventOrderPerJob(t *testing.T) {
	m, err := New(Config{Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)

	replay, ch, cancel := m.Subscribe(0)
	defer cancel()
	if len(replay) != 0 {
		t.Fatalf("fresh manager replayed %v", replay)
	}
	m.Submit(Job{ID: "e", Tenant: "t"})
	evs := collect(t, ch, 3)
	want := []string{EventSubmitted, EventStarted, EventCompleted}
	for i, ev := range evs {
		if ev.Type != want[i] {
			t.Fatalf("event %d type %q, want %q (all %v)", i, ev.Type, want[i], evs)
		}
		if ev.Job != "e" || ev.Tenant != "t" {
			t.Fatalf("event %d subject %+v", i, ev)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d has no timestamp", i)
		}
	}
	if evs[2].State != StateCompleted {
		t.Fatalf("terminal event state %s", evs[2].State)
	}
}

func TestEventsSinceReplay(t *testing.T) {
	m, err := New(Config{Workers: 1}, okExec)
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	m.Submit(Job{ID: "one"})
	waitState(t, m, "one", StateCompleted)
	m.Submit(Job{ID: "two"})
	waitState(t, m, "two", StateCompleted)

	// 6 events total (3 per job). Resuming from seq 3 replays only job two's.
	replay, _, cancel := m.Subscribe(3)
	defer cancel()
	if len(replay) != 3 {
		t.Fatalf("replayed %d events, want 3: %v", len(replay), replay)
	}
	for i, ev := range replay {
		if ev.Job != "two" {
			t.Fatalf("replay %d is for job %q", i, ev.Job)
		}
		if ev.Seq != uint64(4+i) {
			t.Fatalf("replay %d seq %d", i, ev.Seq)
		}
	}
	// since == latest seq replays nothing.
	none, _, cancel2 := m.Subscribe(6)
	defer cancel2()
	if len(none) != 0 {
		t.Fatalf("since=6 replayed %v", none)
	}
}

func TestEventRingBoundedReplay(t *testing.T) {
	r := newEventRing(4, NewObs(nil))
	for i := 0; i < 10; i++ {
		r.publish(Event{Type: EventSubmitted, Job: "j"})
	}
	replay, _, cancel := r.subscribe(0)
	defer cancel()
	if len(replay) != 4 {
		t.Fatalf("replayed %d, want ring cap 4", len(replay))
	}
	for i, ev := range replay {
		if ev.Seq != uint64(7+i) {
			t.Fatalf("replay %d seq %d, want %d (oldest evicted)", i, ev.Seq, 7+i)
		}
	}
}

func TestEventRingSlowSubscriberDoesNotBlock(t *testing.T) {
	r := newEventRing(1024, NewObs(nil))
	_, ch, cancel := r.subscribe(0)
	defer cancel()
	// Never drain: publishes beyond the channel buffer must not block.
	done := make(chan struct{})
	go func() {
		for i := 0; i < subChanBuf+50; i++ {
			r.publish(Event{Type: EventSubmitted})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}
	if len(ch) != subChanBuf {
		t.Fatalf("subscriber buffered %d, want %d", len(ch), subChanBuf)
	}
	// The overflow is recoverable via since-replay.
	last := <-ch
	_ = last
	replay, _, cancel2 := r.subscribe(uint64(subChanBuf))
	defer cancel2()
	if len(replay) != 50 {
		t.Fatalf("since-replay recovered %d dropped events, want 50", len(replay))
	}
}

func TestEventRingCloseEndsSubscribers(t *testing.T) {
	r := newEventRing(8, NewObs(nil))
	_, ch, cancel := r.subscribe(0)
	defer cancel()
	r.publish(Event{Type: EventSubmitted})
	r.close()
	// Buffered event still delivered, then the channel closes.
	if ev, ok := <-ch; !ok || ev.Seq != 1 {
		t.Fatalf("first recv %+v ok=%v", ev, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel open after ring close")
	}
	// Publishing after close is a silent no-op; subscribing yields a closed
	// channel plus the buffered history.
	r.publish(Event{Type: EventSubmitted})
	replay, ch2, cancel2 := r.subscribe(0)
	defer cancel2()
	if len(replay) != 1 {
		t.Fatalf("post-close replay %v", replay)
	}
	if _, ok := <-ch2; ok {
		t.Fatal("post-close subscription channel open")
	}
}
