// Package tracing records *why* the simulated system did what it did:
// lightweight, sim-time-stamped event records for radio sessions,
// duty-cycle wakes, scheduling decisions (chosen slot and profit),
// deferral deadlines and fault retries, collected in a bounded ring
// buffer and exportable as JSONL.
//
// Where internal/metrics answers "how much", a trace answers "when and
// why": every record carries the simulation instant and enough context
// (activity index, slot, attempt count, outcome) to reconstruct a
// single transfer's story across the chaos machinery. The sink is a
// fixed-capacity ring so a 14-day soak cannot grow without bound — when
// it wraps, the oldest events are dropped and counted.
//
// Like metrics handles, a nil *Sink is a valid no-op, so instrumented
// code pays one nil check when tracing is off.
package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"netmaster/internal/simtime"
)

// Kind classifies trace events. String-typed so JSONL stays greppable.
type Kind string

// The event kinds the instrumented packages emit.
const (
	// KindRadioSession is one commanded radio-on span (enable → disable);
	// Dur is its length.
	KindRadioSession Kind = "radio-session"
	// KindDutyWake is one duty-cycle wake; Dur is the listen window.
	KindDutyWake Kind = "duty-wake"
	// KindSchedDecision is one accepted assignment of Algorithm 1:
	// Activity moved to Slot at Time, with Value = profit (ΔE − ΔP),
	// Saved = ΔE and Penalty = ΔP.
	KindSchedDecision Kind = "sched-decision"
	// KindSchedRun summarises one Schedule call (Value = objective).
	KindSchedRun Kind = "sched-run"
	// KindTransfer is one executed network activity; Outcome says which
	// path ran it (foreground, served, deadline, drain).
	KindTransfer Kind = "transfer"
	// KindDeadlineFlush is a transfer force-executed at the hard
	// deferral deadline; Dur is how long it had waited.
	KindDeadlineFlush Kind = "deadline-flush"
	// KindFault is an absorbed one-shot fault (a lost DB write, a
	// perturbed event) that has no retry loop; Op names the boundary.
	KindFault Kind = "fault"
	// KindFaultRetry is one failed command/transfer attempt about to be
	// retried; Attempts is the attempt number that failed.
	KindFaultRetry Kind = "fault-retry"
	// KindGiveUp is a command abandoned after the retry budget.
	KindGiveUp Kind = "give-up"
	// KindModeTransition is a middleware degradation-mode change;
	// Detail is "from→to".
	KindModeTransition Kind = "mode-transition"
	// KindMineRun is one midnight mining run; Outcome is ok or fail.
	KindMineRun Kind = "mine-run"
	// KindEvalRun is one policy evaluation in an eval sweep; Value is
	// the energy saving vs baseline.
	KindEvalRun Kind = "eval-run"
	// KindSchedSlot is one loaded user-active slot of a Schedule run:
	// Slot is its index, Time its start, Dur its length, Bytes the
	// volume assigned into it and Cap its Eq. 5 capacity. Emitted only
	// for slots that received at least one assignment, so the fleet
	// analyzer can audit capacity from the trace alone.
	KindSchedSlot Kind = "sched-slot"
)

// Event is one trace record. Zero-valued fields are omitted from JSONL,
// so each kind only pays for the context it carries.
type Event struct {
	// Seq is the sink-assigned global sequence number, monotonically
	// increasing across the run even when the ring has wrapped.
	Seq uint64 `json:"seq"`
	// Time is the simulation instant of the event.
	Time simtime.Instant `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Op names the effect boundary for fault events (radio-enable,
	// trigger-sync, transfer, …).
	Op string `json:"op,omitempty"`
	// App is the application involved, when one is.
	App string `json:"app,omitempty"`
	// Activity is the trace activity index (or scheduler activity ID).
	Activity int `json:"activity,omitempty"`
	// Slot is the chosen active-slot index of a scheduling decision.
	Slot int `json:"slot,omitempty"`
	// Attempts counts executor attempts for retry/give-up events.
	Attempts int `json:"attempts,omitempty"`
	// Bytes is the payload moved, for transfer events, or the volume
	// assigned into a slot for sched-slot events.
	Bytes int64 `json:"bytes,omitempty"`
	// Cap is the Eq. 5 slot capacity in bytes, for sched-slot events.
	Cap int64 `json:"cap,omitempty"`
	// Dur is the event's span (session length, wake window, wait).
	Dur simtime.Duration `json:"dur,omitempty"`
	// Value, Saved and Penalty carry the numeric payload: profit terms
	// for scheduling decisions, savings for eval runs.
	Value   float64 `json:"value,omitempty"`
	Saved   float64 `json:"saved,omitempty"`
	Penalty float64 `json:"penalty,omitempty"`
	// Outcome is a short result tag (ok, fail, served, deadline, …).
	Outcome string `json:"outcome,omitempty"`
	// Detail is free-form context (mode transitions, error strings).
	Detail string `json:"detail,omitempty"`
}

// DefaultCapacity is the ring size used when NewSink is given a
// non-positive capacity: enough for a multi-week replay's decision log
// while bounding a soak's memory.
const DefaultCapacity = 1 << 16

// Sink collects events in a fixed-capacity ring buffer. Safe for
// concurrent use; a nil *Sink discards events.
type Sink struct {
	mu      sync.Mutex
	buf     []Event
	start   int    // index of the oldest event
	n       int    // events currently buffered
	seq     uint64 // next sequence number
	dropped uint64 // events overwritten after the ring wrapped
}

// NewSink builds a sink holding at most capacity events (DefaultCapacity
// when capacity <= 0).
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Sink{buf: make([]Event, 0, capacity)}
}

// defaultSink is the process-wide sink shared by the eval hooks when no
// explicit sink is wired.
var defaultSink = NewSink(0)

// Default returns the process-wide sink.
func Default() *Sink { return defaultSink }

// Emit records one event, assigning its sequence number. When the ring
// is full the oldest event is dropped and counted. Nil-safe.
func (s *Sink) Emit(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.Seq = s.seq
	s.seq++
	if s.n < cap(s.buf) {
		if len(s.buf) < cap(s.buf) {
			s.buf = s.buf[:len(s.buf)+1]
		}
		s.buf[(s.start+s.n)%cap(s.buf)] = e
		s.n++
		return
	}
	s.buf[s.start] = e
	s.start = (s.start + 1) % cap(s.buf)
	s.dropped++
}

// Len returns the number of buffered events.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped returns how many events the ring has overwritten.
func (s *Sink) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Events returns the buffered events oldest-first.
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.buf[(s.start+i)%cap(s.buf)]
	}
	return out
}

// Reset discards every buffered event and the drop count, keeping the
// sequence counter so later events remain globally ordered.
func (s *Sink) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf = s.buf[:0]
	s.start, s.n, s.dropped = 0, 0, 0
}

// Header is the metadata line leading a JSONL export. It makes a trace
// file self-describing about truncation: a ring that wrapped reports the
// overwritten-event count as trace_dropped_total, so the fleet analyzer
// can flag a truncated trace instead of silently computing wrong totals
// from the surviving suffix.
type Header struct {
	// Format identifies a header line (and versions the layout); events
	// never carry this field.
	Format int `json:"trace_format"`
	// Events is the number of event lines that follow.
	Events int `json:"events"`
	// Dropped is the number of events the ring overwrote before export.
	Dropped uint64 `json:"trace_dropped_total"`
	// NextSeq is the sink's next sequence number; NextSeq - Events -
	// Dropped is the first buffered event's sequence (absent resets).
	NextSeq uint64 `json:"next_seq"`
	// Capacity is the ring size the sink ran with.
	Capacity int `json:"capacity"`
}

// formatVersion is the JSONL layout version written by WriteJSONL.
const formatVersion = 1

// Truncated reports whether the export lost events to the ring.
func (h Header) Truncated() bool { return h.Dropped > 0 }

// Header returns the metadata WriteJSONL would emit right now.
func (s *Sink) Header() Header {
	if s == nil {
		return Header{Format: formatVersion}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Header{
		Format:   formatVersion,
		Events:   s.n,
		Dropped:  s.dropped,
		NextSeq:  s.seq,
		Capacity: cap(s.buf),
	}
}

// WriteJSONL writes a header line followed by the buffered events
// oldest-first, one JSON object per line.
func (s *Sink) WriteJSONL(w io.Writer) error {
	hdr, err := json.Marshal(s.Header())
	if err != nil {
		return fmt.Errorf("tracing: marshal header: %w", err)
	}
	if _, err := w.Write(append(hdr, '\n')); err != nil {
		return err
	}
	for _, e := range s.Events() {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("tracing: marshal event %d: %w", e.Seq, err)
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONLWithHeader parses a JSONL export into its header and events.
// Headerless input yields a zero header (Format 0).
func ReadJSONLWithHeader(r io.Reader) (Header, []Event, error) {
	dec := json.NewDecoder(r)
	var hdr Header
	var out []Event
	first := true
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return hdr, nil, fmt.Errorf("tracing: line %d: %w", len(out)+1, err)
		}
		if first {
			first = false
			var probe struct {
				Format int `json:"trace_format"`
			}
			if err := json.Unmarshal(raw, &probe); err == nil && probe.Format > 0 {
				if err := json.Unmarshal(raw, &hdr); err != nil {
					return hdr, nil, fmt.Errorf("tracing: header: %w", err)
				}
				continue
			}
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return hdr, nil, fmt.Errorf("tracing: event %d: %w", len(out), err)
		}
		out = append(out, e)
	}
	return hdr, out, nil
}
