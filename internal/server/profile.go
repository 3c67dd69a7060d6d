// The sketch-aware profile cache. Profiles are cached under their
// sketch-state hash ("sketch:…" — see habit.(*Sketch).Hash), so the
// cache identity of an incrementally maintained profile costs O(sketch
// state) to compute, independent of how much trace has been folded in.
// Requests that ship a trace (or a gen spec) reach the cache through a
// cheap request-shape alias, so a warm hit never re-serialises — or, on
// the gen path, even synthesises — the trace.
package server

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"

	"netmaster/internal/habit"
	"netmaster/internal/trace"
)

// profileEntry is one cached profile: the materialised profile plus the
// sketch it came from, so later /v1/profile/update calls can fold new
// days on top without re-mining history. All fields are immutable once
// cached; updates clone the sketch.
type profileEntry struct {
	sketch  *habit.Sketch
	profile *habit.Profile
	// blob is the sketch encoding the journal holds for this profile,
	// nil for a profile that was only mined and never journaled. The
	// entries with a blob are the durable profile set a snapshot writes.
	blob []byte
}

// cfgSuffix encodes the mining config for alias keys.
func cfgSuffix(cfg habit.Config) string {
	return fmt.Sprintf("%d:%g:%g:%g",
		cfg.SlotWidth, cfg.WeekdayThreshold, cfg.WeekendThreshold, cfg.RecencyHalfLifeDays)
}

// genAlias is the alias key of a synthesised-trace request. Generation
// is seeded per user, so (user, days, config) fully determines the
// profile — a hit skips synth.Generate and the mine.
func genAlias(gen *GenSpec, cfg habit.Config) string {
	return fmt.Sprintf("gen:%s:%d:%s", gen.User, gen.Days, cfgSuffix(cfg))
}

// binHash writes fixed-width binary fields into a hash without the text
// round-trip trace.Write would cost.
type binHash struct {
	w   *bufio.Writer
	buf [8]byte
}

func (b *binHash) i64(v int64) {
	binary.LittleEndian.PutUint64(b.buf[:], uint64(v))
	b.w.Write(b.buf[:])
}

func (b *binHash) str(s string) {
	b.w.WriteString(s)
	b.w.WriteByte(0)
}

// traceAlias is the alias key of an inline-trace request: a binary
// content hash over every trace field plus the mining config. This
// replaces the old per-request canonical-text serialisation — same
// collision resistance, no fmt formatting on the hot path.
func traceAlias(t *trace.Trace, cfg habit.Config) string {
	h := sha256.New()
	b := &binHash{w: bufio.NewWriter(h)}
	b.str(t.UserID)
	b.i64(int64(t.Days))
	b.i64(int64(len(t.InstalledApps)))
	for _, app := range t.InstalledApps {
		b.str(string(app))
	}
	b.i64(int64(len(t.Sessions)))
	for _, s := range t.Sessions {
		b.i64(int64(s.Interval.Start))
		b.i64(int64(s.Interval.End))
	}
	b.i64(int64(len(t.Activities)))
	for _, a := range t.Activities {
		b.str(string(a.App))
		b.i64(int64(a.Start))
		b.i64(int64(a.Duration))
		b.i64(a.BytesDown)
		b.i64(a.BytesUp)
		b.i64(int64(a.Kind))
	}
	b.i64(int64(len(t.Interactions)))
	for _, ia := range t.Interactions {
		b.i64(int64(ia.Time))
		b.str(string(ia.App))
		wants := int64(0)
		if ia.WantsNetwork {
			wants = 1
		}
		b.i64(wants)
	}
	b.str(cfgSuffix(cfg))
	b.w.Flush()
	return "trace:" + hex.EncodeToString(h.Sum(nil))
}

// aliasHit resolves a request-shape alias through both cache levels.
func (s *Server) aliasHit(alias string) (*profileEntry, string, bool) {
	idv, ok := s.aliases.Get(alias)
	if !ok {
		return nil, "", false
	}
	id := idv.(string)
	v, ok := s.profiles.Get(id)
	if !ok {
		return nil, "", false
	}
	return v.(*profileEntry), id, true
}

// cachedProfile is the one by-ID profile lookup: the cached entry,
// counted as a hit, or a 404 unknown_profile.
func (s *Server) cachedProfile(id string) (*profileEntry, error) {
	v, ok := s.profiles.Get(id)
	if !ok {
		return nil, &apiError{Code: http.StatusNotFound, Kind: "unknown_profile",
			Msg: fmt.Sprintf("profile %s not cached; re-mine or pass the trace", id)}
	}
	s.mProfHit.Inc()
	return v.(*profileEntry), nil
}

// storeProfile caches an entry under its sketch-state ID. On a durable
// server an unjournaled entry never replaces a journaled one of the same
// state: stateMu orders the check and the Put against persistProfile
// and compaction, so an acked profile stays in the durable set until
// the cache evicts it.
func (s *Server) storeProfile(id string, e *profileEntry) {
	if e.blob == nil && s.store != nil {
		s.stateMu.Lock()
		defer s.stateMu.Unlock()
		if v, ok := s.profiles.Get(id); ok && v.(*profileEntry).blob != nil {
			e = v.(*profileEntry)
		}
	}
	if s.profiles.Put(id, e) {
		s.mProfEvic.Inc()
	}
}

// resolveProfile is the one profile path for mine and schedule
// requests: alias lookup first (skipping generation and mining on a
// hit), sketch-mine on a miss. The response body is byte-identical
// either way; only the X-Netmaster-Cache header and counters differ.
func (s *Server) resolveProfile(tr *trace.Trace, gen *GenSpec, cfg habit.Config) (*profileEntry, string, bool, error) {
	var alias string
	switch {
	case tr != nil:
		alias = traceAlias(tr, cfg)
	case gen != nil:
		alias = genAlias(gen, cfg)
	default:
		return nil, "", false, &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: "need trace or gen"}
	}
	if e, id, ok := s.aliasHit(alias); ok {
		s.mProfHit.Inc()
		return e, id, true, nil
	}
	s.mProfMiss.Inc()
	t, _, err := resolveTrace(tr, gen)
	if err != nil {
		return nil, "", false, err
	}
	sk, err := habit.NewSketch(t.UserID, cfg)
	if err != nil {
		return nil, "", false, &apiError{Code: http.StatusBadRequest, Kind: "bad_config", Msg: err.Error()}
	}
	if err := sk.FoldTrace(t); err != nil {
		return nil, "", false, &apiError{Code: http.StatusBadRequest, Kind: "mine_failed", Msg: err.Error()}
	}
	e := &profileEntry{sketch: sk, profile: sk.Profile()}
	id := sk.Hash()
	s.storeProfile(id, e)
	s.aliases.Put(alias, id)
	return e, id, false, nil
}

// handleProfileUpdate folds new days into a cached profile's sketch —
// O(new events), not O(whole trace) — and caches the result under its
// new sketch-state ID. With no profile_id it starts a fresh sketch, so
// a cold client can build a profile day by day through this endpoint
// alone.
func (s *Server) handleProfileUpdate(w http.ResponseWriter, r *http.Request) error {
	var req ProfileUpdateRequest
	if err := decode(r, &req); err != nil {
		return err
	}

	var sk *habit.Sketch
	if req.ProfileID != "" {
		if req.Config != nil {
			return &apiError{Code: http.StatusBadRequest, Kind: "bad_request",
				Msg: "config applies only to a fresh profile; the base profile fixes it"}
		}
		base, err := s.cachedProfile(req.ProfileID)
		if err != nil {
			return err
		}
		sk = base.sketch.Clone()
	} else {
		var err error
		sk, err = habit.NewSketch("", habitConfig(req.Config))
		if err != nil {
			return &apiError{Code: http.StatusBadRequest, Kind: "bad_config", Msg: err.Error()}
		}
	}

	t, _, err := resolveTrace(req.Trace, req.Gen)
	if err != nil {
		return err
	}
	if req.Day != nil {
		if err := sk.FoldTraceDay(t, *req.Day); err != nil {
			return &apiError{Code: http.StatusBadRequest, Kind: "bad_request", Msg: err.Error()}
		}
	} else if err := sk.FoldTrace(t); err != nil {
		return &apiError{Code: http.StatusBadRequest, Kind: "mine_failed", Msg: err.Error()}
	}

	id := sk.Hash()
	// "hit" here means this exact fold history was already cached — the
	// update was a no-op for the cache, if not for the fold work. The
	// response comes from the entry in hand, never from a second lookup,
	// which a disabled cache or a concurrent eviction would miss.
	v, hit := s.profiles.Get(id)
	e, _ := v.(*profileEntry)
	if !hit {
		s.mProfMiss.Inc()
		e = &profileEntry{sketch: sk, profile: sk.Profile()}
	} else {
		s.mProfHit.Inc()
	}
	// Durability before acknowledgement: the updated sketch state is
	// journaled (and fsynced) and cached with its blob before the 200,
	// so an acked profile ID survives any crash. Read-only mode answers
	// a typed 503 here instead of acking an update it cannot keep.
	if s.store != nil {
		var err error
		if e, err = s.persistProfile(id, e); err != nil {
			return err
		}
	}
	// The child is the device's live head (a hit revives it if it was
	// demoted) and the base it replaced is superseded: demoting the base
	// makes it evicted before any live head, so devices that sit idle
	// while others update keep their profiles. A retried update from
	// the base still finds it until the cache is that full.
	s.storeProfile(id, e)
	if req.ProfileID != "" && req.ProfileID != id {
		s.profiles.Demote(req.ProfileID)
	}
	p := e.profile

	resp := ProfileUpdateResponse{
		ProfileID:     id,
		BaseProfileID: req.ProfileID,
		Days:          sk.Days(),
		UserID:        p.UserID,
		SlotWidthSecs: int64(p.SlotWidth),
		SpecialApps:   p.SpecialApps,
		Weekday:       dayTypeSummary(p, &p.Weekday, false),
		Weekend:       dayTypeSummary(p, &p.Weekend, true),
	}
	if resp.SpecialApps == nil {
		resp.SpecialApps = []trace.AppID{}
	}
	setCacheHeader(w, hit)
	return writeJSON(w, http.StatusOK, resp)
}
