package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"netmaster/internal/power"
	"netmaster/internal/telemetry/analyze"
)

// fleetState is what each device was last ingested with: the oracle the
// memoised read path is checked against.
type fleetState map[string]IngestRequest

func (f fleetState) put(reqs ...IngestRequest) {
	for _, r := range reqs {
		f[r.DeviceID] = r
	}
}

// sorted returns the current contents in device-ID order.
func (f fleetState) sorted() []IngestRequest {
	out := make([]IngestRequest, 0, len(f))
	for _, r := range f {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeviceID < out[j].DeviceID })
	return out
}

// withArtifacts is donor's artifacts re-ingested under dev's ID.
func withArtifacts(dev, donor IngestRequest) IngestRequest {
	donor.DeviceID = dev.DeviceID
	return donor
}

// truncated is in with a trace header that reports ring overflow, which
// flips the device's analysis to a truncated trace.
func truncated(in IngestRequest) IngestRequest {
	in.Header.Dropped = 3
	in.Header.Capacity = 10
	return in
}

func modelByName(t testing.TB, name string) *power.Model {
	t.Helper()
	m, err := powerModel(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// offlineDevicesDoc is GET /v1/fleet/devices computed straight from the
// artifacts, ingests in device-ID order.
func offlineDevicesDoc(t testing.TB, ingests []IngestRequest, m *power.Model, withReports bool) []byte {
	t.Helper()
	dumps := make([]DeviceDump, len(ingests))
	var reports []analyze.DeviceReport
	if withReports {
		reports = offlineReports(t, ingests, 1, m)
	}
	for i, in := range ingests {
		dumps[i] = DeviceDump{DeviceID: in.DeviceID, Metrics: in.Metrics}
		if withReports {
			dumps[i].Report = &reports[i]
			dumps[i].DeferSecs = reports[i].DeferSecs()
		}
	}
	b, err := encodeJSON(FleetDevicesResponse{Devices: dumps})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkFleetReads reads the fleet report and both device dumps under
// each model in turn; every body must equal the offline fold of the
// fleet's current contents. It returns the last report read.
func checkFleetReads(t *testing.T, ts *httptest.Server, cur fleetState, models ...string) []byte {
	t.Helper()
	ingests := cur.sorted()
	var report []byte
	for _, name := range models {
		m := modelByName(t, name)
		report = get(t, ts, "/v1/fleet/report?model="+name)
		if want := offlineFleetDoc(t, ingests, 1, m); !bytes.Equal(report, want) {
			t.Errorf("model=%s: live report differs from the offline fold of the current contents\nlive:\n%s\noffline:\n%s",
				name, report, want)
		}
		for _, reports := range []string{"0", "1"} {
			path := "/v1/fleet/devices?model=" + name + "&reports=" + reports
			if got, want := get(t, ts, path), offlineDevicesDoc(t, ingests, m, reports == "1"); !bytes.Equal(got, want) {
				t.Errorf("GET %s differs from the offline dumps of the current contents", path)
			}
		}
	}
	return report
}

// TestFleetReadTracksReingest: once both models' reports are memoised,
// re-ingesting devices with different artifacts — one at a time and in
// a batch — must show up in the very next read of every fleet surface.
func TestFleetReadTracksReingest(t *testing.T) {
	ingests := replayCohort(t, 2)
	_, ts, c := testServer(t, nil)
	cur := fleetState{}
	for _, in := range ingests {
		if _, err := c.Ingest(context.Background(), in); err != nil {
			t.Fatal(err)
		}
		cur.put(in)
	}
	before := checkFleetReads(t, ts, cur, "3g", "lte")

	re := withArtifacts(ingests[0], ingests[1])
	if _, err := c.Ingest(context.Background(), re); err != nil {
		t.Fatal(err)
	}
	cur.put(re)
	after := checkFleetReads(t, ts, cur, "lte", "3g")
	if bytes.Equal(before, after) {
		t.Fatal("re-ingesting different artifacts left the report unchanged; the oracle proves nothing")
	}

	items := []IngestRequest{truncated(ingests[1]), withArtifacts(ingests[2], ingests[0])}
	resp, err := c.IngestBatch(context.Background(), BatchIngestRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(items) {
		t.Fatalf("batch accepted %d of %d items", resp.Accepted, len(items))
	}
	cur.put(items...)
	checkFleetReads(t, ts, cur, "3g", "lte")
}

// TestFleetReadTracksReingestDurable: a daemon restarted on its state
// dir analyses the recovered fleet afresh, and re-ingests after the
// restart invalidate those reports like any other.
func TestFleetReadTracksReingestDurable(t *testing.T) {
	ingests := replayCohort(t, 2)
	dir := t.TempDir()
	s1, ts1, c1, err := durableServer(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := fleetState{}
	for _, in := range ingests {
		if _, err := c1.Ingest(context.Background(), in); err != nil {
			t.Fatal(err)
		}
		cur.put(in)
	}
	checkFleetReads(t, ts1, cur, "3g", "lte")
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	_, ts2, c2, err := durableServer(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFleetReads(t, ts2, cur, "lte", "3g")
	re := truncated(withArtifacts(ingests[0], ingests[1]))
	if _, err := c2.Ingest(context.Background(), re); err != nil {
		t.Fatal(err)
	}
	cur.put(re)
	items := []IngestRequest{withArtifacts(ingests[1], ingests[2])}
	if _, err := c2.IngestBatch(context.Background(), BatchIngestRequest{Items: items}); err != nil {
		t.Fatal(err)
	}
	cur.put(items...)
	checkFleetReads(t, ts2, cur, "3g", "lte")
}

// TestFleetReadConcurrentReingest: readers hammer the fleet surfaces
// while a writer keeps re-ingesting every device with new artifacts. A
// report analysed from a device's old contents must never be served for
// its new ones: after every write, and once the writer stops, the
// report equals the offline fold of what was last written. Run under
// -race.
func TestFleetReadConcurrentReingest(t *testing.T) {
	ingests := replayCohort(t, 2)
	s, ts, c := testServer(t, nil)
	cur := fleetState{}
	for _, in := range ingests {
		if _, err := c.Ingest(context.Background(), in); err != nil {
			t.Fatal(err)
		}
		cur.put(in)
	}

	paths := []string{
		"/v1/fleet/report?model=3g",
		"/v1/fleet/report?model=lte",
		"/v1/fleet/devices?model=lte",
		"/v1/fleet/devices?model=3g&reports=0",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var once sync.Once
	stopReaders := func() { once.Do(func() { close(stop); wg.Wait() }) }
	defer stopReaders()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", paths[i%len(paths)], resp.StatusCode)
					return
				}
			}
		}(r)
	}

	// Each round writes twice, a few hundred microseconds apart: readers
	// that missed on the first write are still analysing it when the
	// second lands, and must not publish what they analysed for the
	// second's contents. Writes go straight to applyIngest, the commit
	// point every ingest path shares, so the second one lands inside
	// that window rather than after a request decode. The check runs
	// once the readers have settled.
	n := len(ingests)
	models := []string{"3g", "lte"}
	write := func(version int) {
		for k, in := range ingests {
			next := withArtifacts(in, ingests[(k+version)%n])
			if version%2 == 0 {
				next = truncated(next)
			}
			s.applyIngest(&next)
			cur.put(next)
		}
	}
	for round := 1; round <= 24; round++ {
		write(2 * round)
		time.Sleep(time.Duration(round%5) * 200 * time.Microsecond)
		write(2*round + 1)
		time.Sleep(5 * time.Millisecond)
		m := models[round%2]
		if got, want := get(t, ts, "/v1/fleet/report?model="+m), offlineFleetDoc(t, cur.sorted(), 1, modelByName(t, m)); !bytes.Equal(got, want) {
			t.Fatalf("round %d, model=%s: report under concurrent reads differs from the offline fold of the last write", round, m)
		}
	}
	stopReaders()
	checkFleetReads(t, ts, cur, "3g", "lte")
}

// TestFleetFoldSyncsToEachSnapshot: the daemon's report fold answers
// for exactly the snapshot each read hands it, even when reads arrive
// out of order — an older snapshot lacking a device the fold already
// holds, or carrying an older report of one — and its roll-up equals
// the bulk analyze.Fleet of that snapshot every time.
func TestFleetFoldSyncsToEachSnapshot(t *testing.T) {
	ingests := replayCohort(t, 1)
	m := modelByName(t, "3g")
	v1 := offlineReports(t, ingests, 1, m)
	v2 := offlineReports(t, ingests, 1, m) // same analyses, new pointers
	v2[0] = offlineReports(t, []IngestRequest{withArtifacts(ingests[0], truncated(ingests[1]))}, 1, m)[0]
	snapshot := func(reports ...*analyze.DeviceReport) []DeviceDump {
		dumps := make([]DeviceDump, len(reports))
		for i, r := range reports {
			dumps[i] = DeviceDump{DeviceID: r.Device, Report: r}
		}
		return dumps
	}
	var f fleetFold
	for _, step := range []struct {
		name  string
		dumps []DeviceDump
	}{
		{"all devices", snapshot(&v1[0], &v1[1], &v1[2])},
		{"older snapshot without the last device", snapshot(&v1[0], &v1[1])},
		{"re-ingested first device", snapshot(&v2[0], &v1[1], &v1[2])},
		{"older snapshot of the first device", snapshot(&v1[0], &v2[1])},
		{"empty fleet", snapshot()},
		{"all devices again", snapshot(&v2[0], &v2[1], &v2[2])},
	} {
		var reports []analyze.DeviceReport
		for _, d := range step.dumps {
			reports = append(reports, *d.Report)
		}
		got, err := encodeJSON(f.report(step.dumps))
		if err != nil {
			t.Fatal(err)
		}
		bulk := analyze.Fleet(reports)
		bulk.PerDevice = nil // the fold leaves it to the per-device memo
		want, err := encodeJSON(bulk)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: fold differs from the bulk fold\nfold:\n%s\nbulk:\n%s", step.name, got, want)
		}
	}
}

// readTier is one role of the serve tier under a fleet-read test: the
// server and client to read through, and the daemons that hold the
// per-device memo.
type readTier struct {
	name    string
	ts      *httptest.Server
	client  *Client
	daemons []*Server
}

// readTiers boots a single node and a 2-shard router, each empty.
func readTiers(t *testing.T) []readTier {
	t.Helper()
	s, ts, c := testServer(t, nil)
	f := routerFixture(t, 2, nil, nil)
	return []readTier{
		{"single", ts, c, []*Server{s}},
		{"router", f.ts, f.client, f.shards},
	}
}

// memoEntries is how many analyses the daemon holding id has memoised
// for it, or -1 when no daemon holds it.
func memoEntries(daemons []*Server, id string) int {
	for _, s := range daemons {
		s.fleetMu.Lock()
		d, n := s.fleet[id], -1
		if d != nil {
			n = len(d.reports)
		}
		s.fleetMu.Unlock()
		if d != nil {
			return n
		}
	}
	return -1
}

// TestFleetReportSpliceEdgeCases: the report handlers encode only the
// document head and splice per_device entries into it. On a single node
// and through a 2-shard router, every read must still equal the offline
// fold, which encodes the whole document in one pass: for an empty
// fleet, one device, device IDs that JSON escapes, both models of the
// same devices, and a re-ingest between reads.
func TestFleetReportSpliceEdgeCases(t *testing.T) {
	base := replayCohort(t, 2)
	named := func(id string, donor IngestRequest) IngestRequest {
		return withArtifacts(IngestRequest{DeviceID: id}, donor)
	}
	for _, tier := range readTiers(t) {
		t.Run(tier.name, func(t *testing.T) {
			cur := fleetState{}
			ingest := func(reqs ...IngestRequest) {
				t.Helper()
				for _, in := range reqs {
					if _, err := tier.client.Ingest(context.Background(), in); err != nil {
						t.Fatal(err)
					}
					cur.put(in)
				}
			}
			read := func(step string, models ...string) []byte {
				t.Helper()
				var got []byte
				for _, name := range models {
					got = get(t, tier.ts, "/v1/fleet/report?model="+name)
					if want := offlineFleetDoc(t, cur.sorted(), 1, modelByName(t, name)); !bytes.Equal(got, want) {
						t.Errorf("%s, model=%s: live report differs from the offline fold\nlive:\n%s\noffline:\n%s",
							step, name, got, want)
					}
				}
				return got
			}

			if got := read("empty fleet", "3g", "lte"); !bytes.Contains(got, []byte(`"per_device": null`)) {
				t.Errorf("empty fleet: per_device is not null:\n%s", got)
			}

			ingest(named("solo", base[0]))
			read("one device", "3g")

			ingest(named("a<b&c", base[1]), named("dév-ü", base[2]))
			got := read("escaped IDs", "3g", "lte")
			for _, want := range []string{`"device": "a\u003cb\u0026c"`, `"device": "dév-ü"`} {
				if !bytes.Contains(got, []byte(want)) {
					t.Errorf("escaped IDs: report lacks %s", want)
				}
			}
			for _, id := range []string{"solo", "a<b&c", "dév-ü"} {
				if n := memoEntries(tier.daemons, id); n != 2 {
					t.Errorf("device %q: %d memoised analyses after 3g and lte reads, want 2", id, n)
				}
			}

			ingest(truncated(named("a<b&c", base[0])))
			if n := memoEntries(tier.daemons, "a<b&c"); n != 0 {
				t.Errorf("re-ingested device kept %d memoised analyses", n)
			}
			read("re-ingest", "lte", "3g")
		})
	}
}

// TestSplicePerDeviceRefusesUnexpectedHead: when the encoded head does
// not end in the null per_device the splice replaces, or entries and
// reports disagree in number, the helper returns an error before it
// writes anything — no status, no header, no byte of a document.
func TestSplicePerDeviceRefusesUnexpectedHead(t *testing.T) {
	entries := [][]byte{[]byte("{}"), []byte("{}")}
	untouched := func(rec *httptest.ResponseRecorder) bool {
		return rec.Body.Len() == 0 && len(rec.Header()) == 0
	}
	for _, head := range []string{
		"",
		"{}\n",
		`{"analysis":{"per_device":null}}` + "\n",
		"{\n  \"analysis\": {\n    \"per_device\": []\n  }\n}\n",
		"{\n  \"analysis\": {\n    \"per_device\": null\n  }\n}",
		"{\n  \"analysis\": {\n    \"per_device\": null\n  },\n  \"more\": 1\n}\n",
	} {
		rec := httptest.NewRecorder()
		if err := splicePerDevice(rec, []byte(head), entries); err == nil || !untouched(rec) {
			t.Errorf("head %q: got %v, headers %v, body %q; want an error and nothing written", head, err, rec.Header(), rec.Body)
		}
	}

	head := "{\n  \"analysis\": {\n    \"per_device\": null\n  }\n}\n"
	rec := httptest.NewRecorder()
	if err := splicePerDevice(rec, []byte(head), entries); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"analysis\": {\n    \"per_device\": [\n      {},\n      {}\n    ]\n  }\n}\n"
	if out := rec.Body.Bytes(); string(out) != want || !json.Valid(out) || rec.Code != http.StatusOK ||
		rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("spliced document (status %d, headers %v):\n%s\nwant:\n%s", rec.Code, rec.Header(), out, want)
	}

	rec = httptest.NewRecorder()
	if err := encodeFleetDoc(rec, FleetReportResponse{}, entries); err == nil || !untouched(rec) {
		t.Errorf("2 entries for 0 per_device reports: got %v, body %q; want an error and nothing written", err, rec.Body)
	}
}

// TestFleetReadRejectsBadParams: an unknown ?reports= or ?model= on the
// fleet read endpoints is a 400 bad_request on both roles. The router
// refuses it before fanning out, so no shard sees the request.
func TestFleetReadRejectsBadParams(t *testing.T) {
	for _, tier := range readTiers(t) {
		t.Run(tier.name, func(t *testing.T) {
			spans := func() (n uint64) {
				for _, s := range tier.daemons {
					n += s.spans.Total()
				}
				return n
			}
			for _, path := range []string{
				"/v1/fleet/devices?reports=false",
				"/v1/fleet/devices?reports=true",
				"/v1/fleet/devices?reports=2",
				"/v1/fleet/devices?model=5g",
				"/v1/fleet/report?model=5g",
			} {
				before := spans()
				resp, err := http.Get(tier.ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				var env struct {
					Error *apiError `json:"error"`
				}
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("GET %s: body is not an error envelope: %v", path, err)
				}
				if resp.StatusCode != http.StatusBadRequest || env.Error == nil || env.Error.Kind != "bad_request" {
					t.Errorf("GET %s: status %d, error %+v; want 400 bad_request", path, resp.StatusCode, env.Error)
				}
				if tier.name == "router" && spans() != before {
					t.Errorf("GET %s: the router fanned a bad request out to its shards", path)
				}
			}
			for _, path := range []string{
				"/v1/fleet/devices",
				"/v1/fleet/devices?reports=0",
				"/v1/fleet/devices?reports=1&model=lte",
			} {
				get(t, tier.ts, path)
			}
		})
	}
}

// malformed is in under id with one histogram cut to one bucket fewer
// than its bounds. The snapshot maps are copied, so in stays as it was.
func malformed(t *testing.T, id string, in IngestRequest) IngestRequest {
	t.Helper()
	snap := *in.Metrics
	snap.Histograms = maps.Clone(snap.Histograms)
	for name, hs := range snap.Histograms {
		hs.Buckets = hs.Buckets[:len(hs.Buckets)-1]
		snap.Histograms[name] = hs
		in.DeviceID, in.Metrics = id, &snap
		return in
	}
	t.Fatal("snapshot has no histogram to break")
	return in
}

// TestMalformedSnapshotRefusedAtIngest: a metrics snapshot with fewer
// histogram buckets than bounds is refused at ingest — 400 bad_request
// alone, a per-item bad_request in a batch — on both roles, before it
// is journaled or forwarded. Every fleet read then still answers 200,
// and the report equals the offline fold of the accepted devices.
func TestMalformedSnapshotRefusedAtIngest(t *testing.T) {
	base := replayCohort(t, 2)
	for _, tier := range readTiers(t) {
		t.Run(tier.name, func(t *testing.T) {
			cur := fleetState{}
			for _, in := range base[:2] {
				if _, err := tier.client.Ingest(context.Background(), in); err != nil {
					t.Fatal(err)
				}
				cur.put(in)
			}

			_, err := tier.client.Ingest(context.Background(), malformed(t, "bad-one", base[2]))
			var ae *apiError
			if !errors.As(err, &ae) || ae.Code != http.StatusBadRequest || ae.Kind != "bad_request" {
				t.Errorf("malformed ingest: err = %v, want 400 bad_request", err)
			}

			good := withArtifacts(IngestRequest{DeviceID: "good"}, base[2])
			resp, err := tier.client.IngestBatch(context.Background(), BatchIngestRequest{
				Items: []IngestRequest{malformed(t, "bad-batch", base[0]), good},
			})
			if err != nil {
				t.Fatal(err)
			}
			cur.put(good)
			if resp.Accepted != 1 || resp.Failed != 1 || len(resp.Results) != 2 {
				t.Fatalf("batch ack = accepted %d, failed %d, %d results; want 1/1/2",
					resp.Accepted, resp.Failed, len(resp.Results))
			}
			if r := resp.Results[0]; r.OK || r.Error == nil || r.Error.Kind != "bad_request" {
				t.Errorf("malformed batch item: %+v, want a bad_request error", r)
			}
			if !resp.Results[1].OK {
				t.Errorf("valid batch item: %+v, want OK", resp.Results[1])
			}

			if got, want := get(t, tier.ts, "/v1/fleet/report"), offlineFleetDoc(t, cur.sorted(), 1, power.Model3G()); !bytes.Equal(got, want) {
				t.Errorf("report differs from the offline fold of the accepted devices\nlive:\n%s\noffline:\n%s", got, want)
			}
			get(t, tier.ts, "/metrics")
			get(t, tier.ts, "/metrics?scope=fleet")
			for _, id := range []string{"bad-one", "bad-batch"} {
				if n := memoEntries(tier.daemons, id); n != -1 {
					t.Errorf("refused device %q is held by a daemon", id)
				}
			}
		})
	}
}

// discardResponse is an http.ResponseWriter that counts and drops the
// body, so the encode rung times the encoder, not a buffer.
type discardResponse struct {
	h http.Header
	n int64
}

func (d *discardResponse) Header() http.Header { return d.h }
func (d *discardResponse) WriteHeader(int)     {}
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// digestResponse is an http.ResponseWriter that keeps only the status
// and a CRC-32 of the body, so a read rung times the handler, not a
// growing buffer, and can still check every body it drops.
type digestResponse struct {
	h    http.Header
	code int
	crc  uint32
}

func (d *digestResponse) Header() http.Header  { return d.h }
func (d *digestResponse) WriteHeader(code int) { d.code = code }
func (d *digestResponse) Write(p []byte) (int, error) {
	if d.code == 0 {
		d.code = http.StatusOK
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p)
	return len(p), nil
}

// BenchmarkFleetReportEncode is the encode rung of a fleet read: one
// 500-device report document written whole by writeJSON (old, what the
// handler did before per_device entries were memoised) and by
// encodeFleetDoc streaming already-encoded entries after the encoded
// head (new, a read whose memo is warm). The two must agree byte for
// byte before anything is timed.
func BenchmarkFleetReportEncode(b *testing.B) {
	const devices = 500
	base := replayCohort(b, 1)
	fleet := make([]IngestRequest, devices)
	for i := range fleet {
		fleet[i] = base[i%len(base)]
		fleet[i].DeviceID = fmt.Sprintf("dev-%03d", i)
	}
	doc := offlineFleetReport(b, fleet, 1, power.Model3G())
	entries := make([][]byte, len(doc.Analysis.PerDevice))
	for i := range entries {
		var err error
		if entries[i], err = encodeEntry(&doc.Analysis.PerDevice[i]); err != nil {
			b.Fatal(err)
		}
	}
	whole, err := encodeJSON(doc)
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	if err := encodeFleetDoc(rec, doc, entries); err != nil {
		b.Fatal(err)
	}
	if !bytes.Equal(whole, rec.Body.Bytes()) {
		b.Fatal("spliced fleet document differs from the whole-document encode")
	}

	for _, bc := range []struct {
		name   string
		encode func(w http.ResponseWriter) error
	}{
		{"old-whole-document", func(w http.ResponseWriter) error { return writeJSON(w, http.StatusOK, doc) }},
		{"new-spliced-entries", func(w http.ResponseWriter) error { return encodeFleetDoc(w, doc, entries) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(whole)))
			for i := 0; i < b.N; i++ {
				w := &discardResponse{h: http.Header{}}
				if err := bc.encode(w); err != nil {
					b.Fatal(err)
				}
				if w.n != int64(len(whole)) {
					b.Fatalf("wrote %d bytes, want %d", w.n, len(whole))
				}
			}
		})
	}
}

// BenchmarkFleetReport is the in-process fleet-read rung: GET
// /v1/fleet/report over 100 devices (and, under devices=500, over
// fleet-read's 500), after re-ingesting either every device
// (changed=all: every report is analysed afresh, the cost of a read
// before per-device memoisation) or 4% of them (changed=4%: the steady
// state under a trickle of writes). Re-ingests run off the clock; the
// first read must equal the offline fold byte for byte, and every timed
// read the first one's digest.
func BenchmarkFleetReport(b *testing.B) {
	base := replayCohort(b, 1)
	benchFleetReads(b, base, 100)
	b.Run("devices=500", func(b *testing.B) { benchFleetReads(b, base, 500) })
}

// benchFleetReads runs BenchmarkFleetReport's changed=all and
// changed=4% cases over a fleet of the given size cloned from base.
func benchFleetReads(b *testing.B, base []IngestRequest, devices int) {
	fleet := make([]IngestRequest, devices)
	for i := range fleet {
		fleet[i] = base[i%len(base)]
		fleet[i].DeviceID = fmt.Sprintf("dev-%03d", i)
	}
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := range fleet {
		s.applyIngest(&fleet[i])
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/fleet/report", nil))
	if rec.Code != http.StatusOK {
		b.Fatalf("fleet report: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if !bytes.Equal(rec.Body.Bytes(), offlineFleetDoc(b, fleet, 1, power.Model3G())) {
		b.Fatal("live fleet report differs from the offline fold")
	}
	want := crc32.ChecksumIEEE(rec.Body.Bytes())

	for _, bc := range []struct {
		name    string
		changed int
	}{{"changed=all", devices}, {"changed=4%", devices * 4 / 100}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			next := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for k := 0; k < bc.changed; k++ {
					s.applyIngest(&fleet[next])
					next = (next + 1) % devices
				}
				b.StartTimer()
				w := &digestResponse{h: http.Header{}}
				s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/fleet/report", nil))
				if w.code != http.StatusOK || w.crc != want {
					b.Fatalf("fleet report read %d: status %d, body crc %08x, want 200 and %08x", i, w.code, w.crc, want)
				}
			}
		})
	}
}
