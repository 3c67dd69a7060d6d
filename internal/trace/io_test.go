package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"netmaster/internal/simtime"
)

func TestWriteReadRoundtrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestFileRoundtrip(t *testing.T) {
	tr := tinyTrace()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Error("file roundtrip mismatch")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no header":        `{"type":"session","session":{"interval":{"Start":0,"End":5}}}`,
		"duplicate header": "{\"type\":\"header\",\"header\":{\"user_id\":\"u\",\"days\":1}}\n{\"type\":\"header\",\"header\":{\"user_id\":\"u\",\"days\":1}}",
		"unknown type":     "{\"type\":\"header\",\"header\":{\"user_id\":\"u\",\"days\":1}}\n{\"type\":\"wat\"}",
		"bad json":         "{\"type\":",
		"missing body":     "{\"type\":\"header\",\"header\":{\"user_id\":\"u\",\"days\":1}}\n{\"type\":\"activity\"}",
		"invalid trace":    "{\"type\":\"header\",\"header\":{\"user_id\":\"u\",\"days\":0}}",
		"bad kind": "{\"type\":\"header\",\"header\":{\"user_id\":\"u\",\"days\":1}}\n" +
			`{"type":"activity","activity":{"app":"a","start":0,"duration":1,"down":0,"up":0,"kind":"nope"}}`,
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Read accepted invalid input", name)
		}
	}
}

func TestReadNormalizesUnsortedInput(t *testing.T) {
	// Records deliberately out of chronological order: the reader must
	// sort and the result must validate.
	input := "{\"type\":\"header\",\"header\":{\"user_id\":\"u\",\"days\":1}}\n" +
		`{"type":"activity","activity":{"app":"b","start":500,"duration":5,"down":1,"up":0,"kind":"sync"}}` + "\n" +
		`{"type":"activity","activity":{"app":"a","start":100,"duration":5,"down":1,"up":0,"kind":"push"}}` + "\n"
	tr, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Activities[0].App != "a" || tr.Activities[1].App != "b" {
		t.Errorf("reader did not normalize: %+v", tr.Activities)
	}
}

// randomTrace builds a random valid trace for the roundtrip property.
func randomTrace(seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	days := 1 + rng.Intn(3)
	tr := &Trace{UserID: "prop", Days: days, InstalledApps: []AppID{"a", "b"}}
	horizon := int64(days) * int64(simtime.Day)
	cursor := int64(0)
	for cursor < horizon-120 && rng.Float64() < 0.9 {
		cursor += 30 + rng.Int63n(7200)
		length := 5 + rng.Int63n(60)
		if cursor+length >= horizon {
			break
		}
		tr.Sessions = append(tr.Sessions, ScreenSession{Interval: simtime.Interval{
			Start: simtime.Instant(cursor), End: simtime.Instant(cursor + length),
		}})
		cursor += length
	}
	for i := 0; i < rng.Intn(40); i++ {
		start := rng.Int63n(horizon - 200)
		tr.Activities = append(tr.Activities, NetworkActivity{
			App:       AppID([]string{"a", "b"}[rng.Intn(2)]),
			Start:     simtime.Instant(start),
			Duration:  simtime.Duration(1 + rng.Int63n(100)),
			BytesDown: rng.Int63n(1 << 20),
			BytesUp:   rng.Int63n(1 << 16),
			Kind:      ActivityKind(rng.Intn(4)),
		})
	}
	for i := 0; i < rng.Intn(30); i++ {
		tr.Interactions = append(tr.Interactions, Interaction{
			Time:         simtime.Instant(rng.Int63n(horizon)),
			App:          "a",
			WantsNetwork: rng.Intn(2) == 0,
		})
	}
	tr.Normalize()
	return tr
}

func TestRoundtripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		tr := randomTrace(seed)
		if err := tr.Validate(); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestActivityKindUnmarshalFastPath: the in-place match of plain names
// gives the kinds and error texts of json.Unmarshal into a string
// followed by ParseActivityKind, on every kind of input.
func TestActivityKindUnmarshalFastPath(t *testing.T) {
	ref := func(data []byte) (ActivityKind, error) {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return 0, err
		}
		return ParseActivityKind(s)
	}
	cases := []struct {
		in    string
		plain bool // plainJSONString accepts it
	}{
		{`"sync"`, true},
		{`"push"`, true},
		{`"user"`, true},
		{`"stream"`, true},
		{`"bogus"`, true},
		{`""`, true},
		{`"Sync"`, true},
		{`"sync` + "\x7f" + `"`, true},
		{`"sy\u006ec"`, false},
		{`"\u0073ync"`, false},
		{`"sync\n"`, false},
		{`"a\"b"`, false},
		{`"a"b"`, false},
		{`"\"`, false},
		{`"\u00e9"`, false},
		{`"é"`, false},
		{"\"\xff\xfe\"", false},
		{"\"sy\xc3nc\"", false},
		{"\"sy\tnc\"", false},
		{"\"\x00\"", false},
		{`"`, false},
		{``, false},
		{` "sync"`, false},
		{`"sync" `, false},
		{`null`, false},
		{`0`, false},
		{`true`, false},
		{`{}`, false},
		{`["sync"]`, false},
	}
	for _, tc := range cases {
		if _, ok := plainJSONString([]byte(tc.in)); ok != tc.plain {
			t.Errorf("plainJSONString(%q) ok = %v, want %v", tc.in, ok, tc.plain)
		}
		want, wantErr := ref([]byte(tc.in))
		k := ActivityKind(-1)
		err := k.UnmarshalJSON([]byte(tc.in))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("UnmarshalJSON(%q) error %v, want %v", tc.in, err, wantErr)
			continue
		}
		if err == nil && k != want {
			t.Errorf("UnmarshalJSON(%q) = %v, want %v", tc.in, k, want)
		}
	}
	var k ActivityKind
	plain := []byte(`"stream"`)
	if allocs := testing.AllocsPerRun(100, func() { _ = k.UnmarshalJSON(plain) }); allocs != 0 {
		t.Errorf("plain name decode allocates %v times, want 0", allocs)
	}
}
