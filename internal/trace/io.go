// Trace serialization: a line-oriented JSON format (one record per line)
// that mirrors how the on-device monitoring component appends records to
// its database. A trace file starts with a header line and is followed by
// session, activity and interaction records in any order.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"netmaster/internal/simtime"
)

// MarshalJSON encodes the kind as its string name.
func (k ActivityKind) MarshalJSON() ([]byte, error) {
	if k < 0 || int(k) >= len(kindNames) {
		return nil, fmt.Errorf("trace: cannot marshal invalid kind %d", int(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind from its string name. A plain quoted
// ASCII name, the common case, is matched in place; anything else
// (escapes, control or non-ASCII bytes, non-strings) goes through
// json.Unmarshal, so results and error texts are those of the general
// decoder.
func (k *ActivityKind) UnmarshalJSON(data []byte) error {
	if name, ok := plainJSONString(data); ok {
		for i, n := range kindNames {
			if string(name) == n {
				*k = ActivityKind(i)
				return nil
			}
		}
		_, err := ParseActivityKind(string(name))
		return err
	}
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseActivityKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// plainJSONString returns the contents of data when it is a quoted
// string whose bytes need no decoding: printable ASCII without escapes.
func plainJSONString(data []byte) ([]byte, bool) {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return nil, false
	}
	name := data[1 : len(data)-1]
	for _, c := range name {
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return nil, false
		}
	}
	return name, true
}

// record is one line of the trace wire format.
type record struct {
	Type        string           `json:"type"`
	Header      *headerRecord    `json:"header,omitempty"`
	Session     *ScreenSession   `json:"session,omitempty"`
	Activity    *NetworkActivity `json:"activity,omitempty"`
	Interaction *Interaction     `json:"interaction,omitempty"`
}

type headerRecord struct {
	UserID        string  `json:"user_id"`
	Days          int     `json:"days"`
	InstalledApps []AppID `json:"installed_apps"`
	// WiFi carries the coverage intervals; omitted for cellular-only
	// traces so pre-dual-radio files round-trip byte-identically.
	WiFi []simtime.Interval `json:"wifi,omitempty"`
}

// Write serializes the trace to w in the line-oriented format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(record{Type: "header", Header: &headerRecord{
		UserID:        t.UserID,
		Days:          t.Days,
		InstalledApps: t.InstalledApps,
		WiFi:          t.WiFi,
	}}); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for i := range t.Sessions {
		if err := enc.Encode(record{Type: "session", Session: &t.Sessions[i]}); err != nil {
			return fmt.Errorf("trace: writing session %d: %w", i, err)
		}
	}
	for i := range t.Activities {
		if err := enc.Encode(record{Type: "activity", Activity: &t.Activities[i]}); err != nil {
			return fmt.Errorf("trace: writing activity %d: %w", i, err)
		}
	}
	for i := range t.Interactions {
		if err := enc.Encode(record{Type: "interaction", Interaction: &t.Interactions[i]}); err != nil {
			return fmt.Errorf("trace: writing interaction %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses a trace from r, normalizes it and validates its invariants.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	t := &Trace{}
	sawHeader := false
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch rec.Type {
		case "header":
			if sawHeader {
				return nil, fmt.Errorf("trace: line %d: duplicate header", line)
			}
			if rec.Header == nil {
				return nil, fmt.Errorf("trace: line %d: header record missing body", line)
			}
			sawHeader = true
			t.UserID = rec.Header.UserID
			t.Days = rec.Header.Days
			t.InstalledApps = rec.Header.InstalledApps
			t.WiFi = rec.Header.WiFi
		case "session":
			if rec.Session == nil {
				return nil, fmt.Errorf("trace: line %d: session record missing body", line)
			}
			t.Sessions = append(t.Sessions, *rec.Session)
		case "activity":
			if rec.Activity == nil {
				return nil, fmt.Errorf("trace: line %d: activity record missing body", line)
			}
			t.Activities = append(t.Activities, *rec.Activity)
		case "interaction":
			if rec.Interaction == nil {
				return nil, fmt.Errorf("trace: line %d: interaction record missing body", line)
			}
			t.Interactions = append(t.Interactions, *rec.Interaction)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scanning: %w", err)
	}
	if !sawHeader {
		return nil, fmt.Errorf("trace: missing header record")
	}
	t.Normalize()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile writes the trace to the named file.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := Write(f, t); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile reads a trace from the named file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return Read(f)
}
