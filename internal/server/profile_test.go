package server

import (
	"context"
	"errors"
	"net/http"
	"reflect"
	"testing"
)

func intp(v int) *int { return &v }

// TestProfileUpdateIncremental is the serve-path half of the tentpole
// invariant: folding one new day into a cached base profile must land
// on the exact cache key a full mine over the longer trace produces,
// and scheduling against either profile ID must return byte-identical
// bodies.
func TestProfileUpdateIncremental(t *testing.T) {
	_, _, c := testServer(t, nil)
	ctx := context.Background()

	full, err := c.Mine(ctx, MineRequest{Gen: &GenSpec{User: "volunteer1", Days: 15}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := c.Mine(ctx, MineRequest{Gen: &GenSpec{User: "volunteer1", Days: 14}})
	if err != nil {
		t.Fatal(err)
	}
	up, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{
		ProfileID: base.ProfileID,
		Gen:       &GenSpec{User: "volunteer1", Days: 15},
		Day:       intp(14),
	})
	if err != nil {
		t.Fatal(err)
	}
	if up.ProfileID != full.ProfileID {
		t.Errorf("incremental update ID %s != full-mine ID %s", up.ProfileID, full.ProfileID)
	}
	if up.BaseProfileID != base.ProfileID || up.Days != 15 || up.UserID != "volunteer1" {
		t.Errorf("update response = %+v", up)
	}

	acts := []ActivityJSON{
		{ID: 1, TimeSecs: 14 * 86400, Bytes: 500_000, ActiveSecs: 5},
		{ID: 2, TimeSecs: 14*86400 + 3600, Bytes: 1_200_000, ActiveSecs: 8},
	}
	sFull, err := c.Schedule(ctx, ScheduleRequest{ProfileID: full.ProfileID, Day: 14, Activities: acts})
	if err != nil {
		t.Fatal(err)
	}
	sUp, err := c.Schedule(ctx, ScheduleRequest{ProfileID: up.ProfileID, Day: 14, Activities: acts})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sFull, sUp) {
		t.Errorf("schedule via updated profile differs from full-mine profile\n full:    %+v\n updated: %+v", sFull, sUp)
	}
}

// TestProfileUpdateFresh builds a profile from scratch through the
// update endpoint and checks it lands on the same cache entry a mine
// would.
func TestProfileUpdateFresh(t *testing.T) {
	_, _, c := testServer(t, nil)
	ctx := context.Background()

	up, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{Gen: &GenSpec{User: "user4", Days: 14}})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := c.Mine(ctx, MineRequest{Gen: &GenSpec{User: "user4", Days: 14}})
	if err != nil {
		t.Fatal(err)
	}
	if up.ProfileID != mined.ProfileID {
		t.Errorf("fresh update ID %s != mine ID %s", up.ProfileID, mined.ProfileID)
	}
	if up.BaseProfileID != "" || up.Days != 14 {
		t.Errorf("update response = %+v", up)
	}
}

func TestProfileUpdateErrors(t *testing.T) {
	_, _, c := testServer(t, nil)
	ctx := context.Background()
	base, err := c.Mine(ctx, MineRequest{Gen: &GenSpec{User: "volunteer1", Days: 14}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		req  ProfileUpdateRequest
		code int
		kind string
	}{
		{"unknown base", ProfileUpdateRequest{ProfileID: "sketch:beef", Gen: &GenSpec{User: "volunteer1", Days: 15}},
			http.StatusNotFound, "unknown_profile"},
		{"config with base", ProfileUpdateRequest{ProfileID: base.ProfileID, Config: &MineConfig{SlotWidthSecs: 1800},
			Gen: &GenSpec{User: "volunteer1", Days: 15}}, http.StatusBadRequest, "bad_request"},
		{"no trace or gen", ProfileUpdateRequest{ProfileID: base.ProfileID},
			http.StatusBadRequest, "bad_request"},
		{"day out of range", ProfileUpdateRequest{ProfileID: base.ProfileID,
			Gen: &GenSpec{User: "volunteer1", Days: 15}, Day: intp(15)}, http.StatusBadRequest, "bad_request"},
		{"wrong user", ProfileUpdateRequest{ProfileID: base.ProfileID,
			Gen: &GenSpec{User: "user4", Days: 15}, Day: intp(14)}, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.ProfileUpdate(ctx, tc.req)
			var ae *apiError
			if !errors.As(err, &ae) {
				t.Fatalf("err = %v, want apiError", err)
			}
			if ae.Code != tc.code || ae.Kind != tc.kind {
				t.Errorf("got %d/%s (%s), want %d/%s", ae.Code, ae.Kind, ae.Msg, tc.code, tc.kind)
			}
		})
	}
}

// TestGenAliasSkipsGeneration pins the request-shape alias: a repeated
// gen-spec mine is a cache hit (header and profile-cache counters), and
// never re-synthesises the trace.
func TestGenAliasSkipsGeneration(t *testing.T) {
	s, _, c := testServer(t, nil)
	ctx := context.Background()

	first, err := c.Mine(ctx, MineRequest{Gen: &GenSpec{User: "volunteer2", Days: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.mProfMiss.Value(); got != 1 {
		t.Errorf("profile cache misses after first mine = %v, want 1", got)
	}
	second, err := c.Mine(ctx, MineRequest{Gen: &GenSpec{User: "volunteer2", Days: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.mProfHit.Value(); got != 1 {
		t.Errorf("profile cache hits after second mine = %v, want 1", got)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached mine differs from cold mine")
	}
	// A different config must not alias to the same entry.
	other, err := c.Mine(ctx, MineRequest{Gen: &GenSpec{User: "volunteer2", Days: 10},
		Config: &MineConfig{SlotWidthSecs: 1800}})
	if err != nil {
		t.Fatal(err)
	}
	if other.ProfileID == first.ProfileID {
		t.Errorf("config change did not change the profile ID")
	}
}

// TestProfileCacheKeepsIdleHeads: with a small profile cache, one
// device folding more days than the cache holds must not evict the
// current profiles of devices that sat idle meanwhile — each update
// demotes the base it replaced, and demoted bases go first. A base
// superseded a few updates ago still takes a retried update. The durable
// row restarts the server before the checks: the snapshot is written
// from the same cache, so the idle heads survive the restart too.
func TestProfileCacheKeepsIdleHeads(t *testing.T) {
	const cacheSize = 8
	for _, tc := range []struct {
		name    string
		durable bool
	}{{"in-memory", false}, {"durable", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mutate := func(cfg *Config) {
				cfg.CacheSize = cacheSize
				if tc.durable {
					cfg.StateDir = dir
					cfg.CompactEvery = 4
				}
			}
			s, _, c := testServer(t, mutate)
			ctx := context.Background()

			heads := map[string]string{}
			for _, user := range []string{"volunteer1", "volunteer2", "user4"} {
				up, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{Gen: &GenSpec{User: user, Days: 7}})
				if err != nil {
					t.Fatal(err)
				}
				heads[user] = up.ProfileID
			}

			// volunteer1 folds one day at a time; ids[n] is its head
			// after folding day 7+n.
			var ids []string
			for day := 7; day < 7+cacheSize+4; day++ {
				up, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{
					ProfileID: heads["volunteer1"], Gen: &GenSpec{User: "volunteer1", Days: day + 1}, Day: intp(day)})
				if err != nil {
					t.Fatalf("day %d: %v", day, err)
				}
				heads["volunteer1"] = up.ProfileID
				ids = append(ids, up.ProfileID)
			}

			if tc.durable {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				_, _, c = testServer(t, mutate)
			}

			acts := []ActivityJSON{{ID: 1, TimeSecs: 20 * 86400, Bytes: 500_000, ActiveSecs: 5}}
			for user, id := range heads {
				if _, err := c.Schedule(ctx, ScheduleRequest{ProfileID: id, Day: 20, Activities: acts}); err != nil {
					t.Errorf("%s head %s: %v", user, id, err)
				}
			}

			// Retry the update that replaced ids[n-4], three updates back.
			n := len(ids)
			day := 7 + n - 3
			up, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{
				ProfileID: ids[n-4], Gen: &GenSpec{User: "volunteer1", Days: day + 1}, Day: intp(day)})
			if err != nil {
				t.Fatalf("retried update: %v", err)
			}
			if up.ProfileID != ids[n-3] {
				t.Errorf("retried update = %s, want %s", up.ProfileID, ids[n-3])
			}
		})
	}
}

// TestProfileUpdateCacheDisabled: with CacheSize 0 an update still
// answers from the sketch it folded (a based update then cannot find
// its base, which is the documented cost of no cache).
func TestProfileUpdateCacheDisabled(t *testing.T) {
	_, _, c := testServer(t, func(cfg *Config) { cfg.CacheSize = 0 })
	ctx := context.Background()
	up, err := c.ProfileUpdate(ctx, ProfileUpdateRequest{Gen: &GenSpec{User: "user4", Days: 14}})
	if err != nil {
		t.Fatal(err)
	}
	if up.ProfileID == "" || up.Days != 14 || up.UserID != "user4" {
		t.Errorf("update response = %+v", up)
	}
	_, err = c.ProfileUpdate(ctx, ProfileUpdateRequest{ProfileID: up.ProfileID, Gen: &GenSpec{User: "user4", Days: 15}, Day: intp(14)})
	var ae *apiError
	if !errors.As(err, &ae) || ae.Code != http.StatusNotFound || ae.Kind != "unknown_profile" {
		t.Errorf("based update with no cache: err = %v, want 404 unknown_profile", err)
	}
}
