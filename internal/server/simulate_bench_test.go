package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"netmaster/internal/synth"
)

// BenchmarkSimulate is the in-process simulate rung: POST /v1/simulate
// through ServeHTTP with a dual-radio week of an eval-cohort user at
// Wi-Fi coverage 0.4 carried in the body, so each op decodes the trace,
// plans or replays it, and meters both radios.
func BenchmarkSimulate(b *testing.B) {
	spec := synth.EvalCohort()[1]
	spec.WiFiCoverage = 0.4
	tr, err := synth.Generate(spec, 7)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for _, pol := range []string{"netmaster", "online"} {
		body, err := json.Marshal(SimulateRequest{Trace: tr, Policy: pol,
			Networks: &NetworksJSON{WiFi: &WiFiNetworkJSON{}}})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(pol, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("simulate %s: status %d: %s", pol, rec.Code, rec.Body.Bytes())
				}
			}
		})
	}
}
