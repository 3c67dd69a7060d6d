package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"netmaster/internal/faults"
	"netmaster/internal/metrics"
	"netmaster/internal/store"
)

// soakOp is one mutating API call of the crash soak.
type soakOp struct {
	ingest  *IngestRequest
	profile *ProfileUpdateRequest
}

// soakOps builds the deterministic op sequence every soak run replays:
// ingests (including a replacement re-ingest), profile updates
// (including a repeat that must not re-journal), interleaved so
// compactions land between both kinds.
func soakOps(t *testing.T) []soakOp {
	t.Helper()
	ingests := replayCohort(t, 3)
	if len(ingests) < 3 {
		t.Fatalf("cohort too small for the soak: %d devices", len(ingests))
	}
	profile := func(user string, days int) *ProfileUpdateRequest {
		return &ProfileUpdateRequest{Gen: &GenSpec{User: user, Days: days}}
	}
	return []soakOp{
		{ingest: &ingests[0]},
		{profile: profile("volunteer1", 5)},
		{ingest: &ingests[1]},
		{profile: profile("volunteer2", 6)},
		{ingest: &ingests[2]},
		{profile: profile("volunteer1", 5)}, // repeat: already persisted
		{ingest: &ingests[0]},               // re-ingest: replaces, not duplicates
		{profile: profile("volunteer1", 7)},
		{ingest: &ingests[1]},
	}
}

// durableServer builds a server on dir with the given FS and a small
// compaction threshold so soak runs cross several compaction windows.
func durableServer(t *testing.T, dir string, fsys store.FS) (*Server, *httptest.Server, *Client, error) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	cfg.StateDir = dir
	cfg.StateFS = fsys
	cfg.CompactEvery = 2
	s, err := New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, NewClient(ts.URL, nil), nil
}

// apply issues one op, reporting whether the server acknowledged it.
func apply(c *Client, op soakOp) error {
	if op.ingest != nil {
		_, err := c.Ingest(context.Background(), *op.ingest)
		return err
	}
	_, err := c.ProfileUpdate(context.Background(), *op.profile)
	return err
}

// soakState is the recovery-equality oracle: the fleet report bytes and
// the sorted durable profile IDs.
type soakState struct {
	report []byte
	ids    []string
}

func captureState(t *testing.T, s *Server, ts *httptest.Server) soakState {
	t.Helper()
	return soakState{report: get(t, ts, "/v1/fleet/report"), ids: s.PersistedProfileIDs()}
}

// TestCrashRecoverySoak kills the durable store at seeded points across
// appends and compactions, restarts on the survived directory, and
// asserts the recovered server is byte-identical — same fleet report,
// same persisted profile IDs — to a never-crashed reference that
// executed some prefix of the op sequence no shorter than what the
// crashed server acknowledged.
func TestCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed crash soak")
	}
	ops := soakOps(t)

	// The reference: one healthy durable server, fed op by op, with the
	// oracle state captured after every prefix. refStates[m] is the
	// state after ops[0:m].
	refDir := t.TempDir()
	refSrv, refTS, refClient, err := durableServer(t, refDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	refStates := make([]soakState, 0, len(ops)+1)
	refStates = append(refStates, captureState(t, refSrv, refTS))
	for i, op := range ops {
		if err := apply(refClient, op); err != nil {
			t.Fatalf("reference op %d: %v", i, err)
		}
		refStates = append(refStates, captureState(t, refSrv, refTS))
	}

	// Boot costs ~14 mutating FS ops (journal init + boot compaction);
	// each acked op is 2 more and every compaction ~9. Sweep crash
	// points from mid-boot to beyond the full run so every phase —
	// recovery, append, snapshot write, journal swap — gets hit.
	for seed := int64(1); seed <= 10; seed++ {
		crashAt := int(seed) * 7 // 7, 14, ..., 70
		t.Run(fmt.Sprintf("seed=%d_crash@%d", seed, crashAt), func(t *testing.T) {
			dir := t.TempDir()
			ffs, err := faults.NewFS(nil, faults.FSConfig{Seed: seed, CrashAfterWrites: crashAt})
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			ackedPrefix := true
			crashed, _, crashedClient, err := durableServer(t, dir, ffs)
			if err == nil {
				for _, op := range ops {
					if aerr := apply(crashedClient, op); aerr == nil {
						if ackedPrefix {
							acked++
						}
					} else {
						// After the first failure later acks may still
						// happen (compaction failures are non-fatal), but
						// the oracle only needs the acked *prefix*.
						ackedPrefix = false
					}
				}
				crashed.Close()
			}

			// Recover on the same directory with a healthy filesystem.
			recSrv, recTS, _, err := durableServer(t, dir, nil)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			got := captureState(t, recSrv, recTS)
			match := -1
			for m := acked; m <= len(ops); m++ {
				if bytes.Equal(got.report, refStates[m].report) && reflect.DeepEqual(got.ids, refStates[m].ids) {
					match = m
					break
				}
			}
			if match < 0 {
				t.Fatalf("recovered state matches no reference prefix ≥ %d acked ops\nrecovered ids: %v",
					acked, got.ids)
			}
			// The recovered daemon is writable again and keeps going:
			// finishing the op sequence converges on the full reference.
			recClient := NewClient(recTS.URL, nil)
			for i, op := range ops[match:] {
				if err := apply(recClient, op); err != nil {
					t.Fatalf("post-recovery op %d: %v", i, err)
				}
			}
			final := captureState(t, recSrv, recTS)
			if !bytes.Equal(final.report, refStates[len(ops)].report) || !reflect.DeepEqual(final.ids, refStates[len(ops)].ids) {
				t.Fatal("post-recovery run diverged from the never-crashed reference")
			}
		})
	}
}

// TestRestartWithoutCrashIsByteIdentical is the CI smoke's in-process
// twin: run the ops, close cleanly, reopen, and the report and profile
// IDs must be byte-identical with zero replayed records lost.
func TestRestartWithoutCrashIsByteIdentical(t *testing.T) {
	ops := soakOps(t)
	dir := t.TempDir()
	s1, ts1, c1, err := durableServer(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if err := apply(c1, op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	want := captureState(t, s1, ts1)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, ts2, _, err := durableServer(t, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := captureState(t, s2, ts2)
	if !bytes.Equal(got.report, want.report) {
		t.Error("fleet report changed across a clean restart")
	}
	if !reflect.DeepEqual(got.ids, want.ids) {
		t.Errorf("persisted profile IDs changed across restart: %v vs %v", got.ids, want.ids)
	}
}

// TestReadOnlyModeOnJournalFailure: when the journal becomes
// unwritable, mutating endpoints answer a typed 503, healthz degrades
// to read_only, and reads keep working.
func TestReadOnlyModeOnJournalFailure(t *testing.T) {
	ingests := replayCohort(t, 2)
	// Measure how many mutating FS ops a boot costs (journal init plus
	// the boot compaction), then schedule the crash on the very next
	// mutating op — the first ingest's journal write.
	probe, err := faults.NewFS(nil, faults.FSConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := durableServer(t, t.TempDir(), probe); err != nil {
		t.Fatal(err)
	}
	bootOps := probe.Writes()

	ffs, err := faults.NewFS(nil, faults.FSConfig{Seed: 2, CrashAfterWrites: bootOps + 1})
	if err != nil {
		t.Fatal(err)
	}
	s, _, c, err := durableServer(t, t.TempDir(), ffs)
	if err != nil {
		t.Fatal(err)
	}
	_, ierr := c.Ingest(context.Background(), ingests[0])
	var ae *apiError
	if !errors.As(ierr, &ae) || ae.Code != 503 || ae.Kind != "read_only" {
		t.Fatalf("ingest on dead journal: err = %v, want 503 read_only", ierr)
	}
	// Sticky: the next mutation fails the same way.
	if _, err := c.ProfileUpdate(context.Background(), ProfileUpdateRequest{
		Gen: &GenSpec{User: "volunteer1", Days: 3},
	}); !errors.As(err, &ae) || ae.Kind != "read_only" {
		t.Fatalf("profile update on dead journal: err = %v, want 503 read_only", err)
	}
	h, err := c.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "read_only" || h.Store == nil || h.Store.Mode != "read_only" {
		t.Errorf("healthz = %+v, want read_only status and store mode", h)
	}
	// Reads still serve.
	if _, err := c.FleetReport(context.Background(), ""); err != nil {
		t.Errorf("read path failed in read-only mode: %v", err)
	}
	_ = s
}

// TestRecoveryRefusesInteriorCorruption: a bit flip inside an interior
// journal record must abort startup with ErrCorrupt — acknowledged
// state that cannot be trusted is a refusal, not a silent skip.
func TestRecoveryRefusesInteriorCorruption(t *testing.T) {
	ingests := replayCohort(t, 2)
	cfg := DefaultConfig()
	cfg.Metrics = metrics.NewRegistry()
	cfg.StateDir = t.TempDir()
	s2, err := New(cfg) // default CompactEvery: no auto compaction mid-run
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2)
	c2 := NewClient(ts.URL, nil)
	for i := range ingests {
		if _, err := c2.Ingest(context.Background(), ingests[i]); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(cfg.StateDir, store.JournalName)
	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record's payload: with two records in
	// the file that is interior corruption, not a torn tail.
	b[8+16+40] ^= 0x20
	if err := os.WriteFile(jpath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig()
	cfg2.Metrics = metrics.NewRegistry()
	cfg2.StateDir = cfg.StateDir
	if _, err := New(cfg2); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("New over corrupted journal: err = %v, want ErrCorrupt", err)
	}
}

// TestStoreMetricsExposed: the server_store_* family is registered (and
// only registered) when a StateDir is configured.
func TestStoreMetricsExposed(t *testing.T) {
	s, ts, c, err := durableServer(t, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ingests := replayCohort(t, 2)
	if _, err := c.Ingest(context.Background(), ingests[0]); err != nil {
		t.Fatal(err)
	}
	prom := string(get(t, ts, "/metrics"))
	for _, name := range []string{
		"netmaster_server_store_appends_total",
		"netmaster_server_store_replays_total",
		"netmaster_server_store_compactions_total",
		"netmaster_server_store_torn_tails_total",
		"netmaster_server_store_recovery_ms",
	} {
		if !strings.Contains(prom, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	_ = s

	// Without a StateDir the family must stay out of /metrics (the
	// exposition is golden-tested elsewhere).
	_, ts2, c2 := testServer(t, nil)
	if _, err := c2.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(get(t, ts2, "/metrics")), "server_store_") {
		t.Error("store metrics leaked into a stateless server's /metrics")
	}
}

// TestProfileJournalAndCacheStayAtomic: with a compaction after every
// record, two devices updating concurrently race each other's
// compactions. A profile's journal append and its cache insert share
// one stateMu section, so no compaction covers the record without the
// entry: after a clean restart every acked profile still schedules and
// the durable set is unchanged.
func TestProfileJournalAndCacheStayAtomic(t *testing.T) {
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.StateDir = dir
		cfg.CompactEvery = 1
	}
	s, _, c := testServer(t, durable)
	ctx := context.Background()

	const firstDays, updates = 3, 10
	users := []string{"volunteer1", "volunteer2"}
	acked := make([][]string, len(users))
	errs := make([]error, len(users))
	var wg sync.WaitGroup
	for u, user := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			up, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{Gen: &GenSpec{User: user, Days: firstDays}})
			for day := firstDays; err == nil; day++ {
				acked[u] = append(acked[u], up.ProfileID)
				if day == firstDays+updates {
					return
				}
				up, err = c.ProfileUpdate(ctx, ProfileUpdateRequest{ProfileID: up.ProfileID,
					Gen: &GenSpec{User: user, Days: day + 1}, Day: intp(day)})
			}
			errs[u] = err
		}()
	}
	wg.Wait()
	for u, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", users[u], err)
		}
	}
	want := s.PersistedProfileIDs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, _, c = testServer(t, durable)
	acts := []ActivityJSON{{ID: 1, TimeSecs: 20 * 86400, Bytes: 500_000, ActiveSecs: 5}}
	for u, ids := range acked {
		for _, id := range ids {
			if _, err := c.Schedule(ctx, ScheduleRequest{ProfileID: id, Day: 20, Activities: acts}); err != nil {
				t.Errorf("%s: acked profile %s after restart: %v", users[u], id, err)
			}
		}
	}
	if got := s.PersistedProfileIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("durable profile IDs changed across restart:\n got %v\nwant %v", got, want)
	}
}

// TestMineKeepsJournaledProfile: mining a trace whose sketch state an
// acked update already journaled must not replace the journaled cache
// entry with an unjournaled one, or the next compaction would drop the
// acked profile from the snapshot.
func TestMineKeepsJournaledProfile(t *testing.T) {
	dir := t.TempDir()
	durable := func(cfg *Config) {
		cfg.StateDir = dir
		cfg.CompactEvery = 1
	}
	s, _, c := testServer(t, durable)
	ctx := context.Background()

	up, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{Gen: &GenSpec{User: "volunteer1", Days: 7}})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := c.Mine(ctx, MineRequest{Gen: &GenSpec{User: "volunteer1", Days: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if mined.ProfileID != up.ProfileID {
		t.Fatalf("mine ID %s != update ID %s", mined.ProfileID, up.ProfileID)
	}
	// Another acked update compacts the state after the mine.
	if _, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{Gen: &GenSpec{User: "user4", Days: 7}}); err != nil {
		t.Fatal(err)
	}
	want := s.PersistedProfileIDs()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, _, c = testServer(t, durable)
	acts := []ActivityJSON{{ID: 1, TimeSecs: 7 * 86400, Bytes: 500_000, ActiveSecs: 5}}
	if _, err := c.Schedule(ctx, ScheduleRequest{ProfileID: up.ProfileID, Day: 7, Activities: acts}); err != nil {
		t.Errorf("acked profile after restart: %v", err)
	}
	if got := s.PersistedProfileIDs(); len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Errorf("durable profile IDs across restart: got %v, want %v (2 IDs)", got, want)
	}
}
