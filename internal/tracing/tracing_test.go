package tracing

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"netmaster/internal/simtime"
)

func TestEmitAndEvents(t *testing.T) {
	s := NewSink(8)
	s.Emit(Event{Time: 10, Kind: KindDutyWake, Dur: 2 * simtime.Second})
	s.Emit(Event{Time: 20, Kind: KindTransfer, Activity: 3, Bytes: 1024, Outcome: "served"})
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	evs := s.Events()
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("sequence numbers wrong: %+v", evs)
	}
	if evs[0].Kind != KindDutyWake || evs[1].Activity != 3 {
		t.Fatalf("events wrong: %+v", evs)
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", s.Dropped())
	}
}

func TestRingWrap(t *testing.T) {
	s := NewSink(4)
	for i := 0; i < 10; i++ {
		s.Emit(Event{Time: simtime.Instant(i), Kind: KindTransfer, Activity: i})
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if s.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", s.Dropped())
	}
	evs := s.Events()
	for i, e := range evs {
		if e.Activity != 6+i || e.Seq != uint64(6+i) {
			t.Fatalf("event %d = %+v, want activity %d seq %d", i, e, 6+i, 6+i)
		}
	}
}

func TestNilSink(t *testing.T) {
	var s *Sink
	s.Emit(Event{Kind: KindTransfer})
	s.Reset()
	if s.Len() != 0 || s.Dropped() != 0 || s.Events() != nil {
		t.Fatal("nil sink must read empty")
	}
	if err := s.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil sink WriteJSONL: %v", err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	s := NewSink(16)
	s.Emit(Event{Time: 5, Kind: KindSchedDecision, Activity: 7, Slot: 2, Value: 1.5, Saved: 2, Penalty: 0.5})
	s.Emit(Event{Time: 9, Kind: KindFaultRetry, Op: "radio-enable", Attempts: 1})
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Header line plus one line per event.
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("JSONL lines = %d, want 3", got)
	}
	// Zero fields stay out of the wire format.
	if strings.Contains(strings.Split(buf.String(), "\n")[1], `"op"`) {
		t.Fatalf("empty op serialised: %s", buf.String())
	}
	_, back, err := ReadJSONLWithHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0] != s.Events()[0] || back[1] != s.Events()[1] {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, s.Events())
	}
}

func TestJSONLHeaderCarriesDrops(t *testing.T) {
	s := NewSink(4)
	for i := 0; i < 10; i++ {
		s.Emit(Event{Time: simtime.Instant(i), Kind: KindTransfer, Activity: i})
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Split(buf.String(), "\n")[0], `"trace_dropped_total":6`) {
		t.Fatalf("header missing drop count: %s", strings.Split(buf.String(), "\n")[0])
	}
	hdr, evs, err := ReadJSONLWithHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !hdr.Truncated() || hdr.Dropped != 6 || hdr.Events != 4 || hdr.NextSeq != 10 || hdr.Capacity != 4 {
		t.Fatalf("header = %+v", hdr)
	}
	if hdr.Format != formatVersion {
		t.Fatalf("format = %d, want %d", hdr.Format, formatVersion)
	}
	if len(evs) != 4 || evs[0].Seq != 6 {
		t.Fatalf("events after header wrong: %+v", evs)
	}
}

func TestReadJSONLHeaderless(t *testing.T) {
	// Pre-format-1 files have no header line; they must still parse.
	hdr, evs, err := ReadJSONLWithHeader(strings.NewReader(
		`{"seq":0,"t":5,"kind":"transfer","activity":1}` + "\n" +
			`{"seq":1,"t":6,"kind":"transfer","activity":2}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Format != 0 || hdr.Truncated() {
		t.Fatalf("headerless input produced header %+v", hdr)
	}
	if len(evs) != 2 || evs[1].Activity != 2 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestNilSinkHeader(t *testing.T) {
	var s *Sink
	if h := s.Header(); h.Events != 0 || h.Dropped != 0 || h.Format != formatVersion {
		t.Fatalf("nil sink header = %+v", h)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, _, err := ReadJSONLWithHeader(strings.NewReader(`{"seq":0}{bogus`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestResetKeepsSequence(t *testing.T) {
	s := NewSink(4)
	s.Emit(Event{Kind: KindTransfer})
	s.Emit(Event{Kind: KindTransfer})
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("len after reset = %d", s.Len())
	}
	s.Emit(Event{Kind: KindTransfer})
	if got := s.Events()[0].Seq; got != 2 {
		t.Fatalf("seq after reset = %d, want 2", got)
	}
}

func TestDefaultCapacityAndSink(t *testing.T) {
	s := NewSink(0)
	if cap(s.buf) != DefaultCapacity {
		t.Fatalf("default capacity = %d, want %d", cap(s.buf), DefaultCapacity)
	}
	if Default() != Default() {
		t.Fatal("Default() not stable")
	}
}

func TestConcurrentEmit(t *testing.T) {
	s := NewSink(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Emit(Event{Kind: KindTransfer, Activity: i})
			}
		}()
	}
	wg.Wait()
	if got := int(s.Dropped()) + s.Len(); got != 800 {
		t.Fatalf("dropped+buffered = %d, want 800", got)
	}
	evs := s.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("sequence gap at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
