package logstore

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hraft-io/hraft/internal/types"
)

func pid(p string, s uint64) types.ProposalID {
	return types.ProposalID{Proposer: types.NodeID(p), Seq: s}
}

func normal(p string, s uint64) types.Entry {
	return types.Entry{Kind: types.KindNormal, PID: pid(p, s), Data: []byte(p)}
}

func TestInsertSelfBasics(t *testing.T) {
	l := New(types.NewConfig("a", "b", "c"))
	if err := l.InsertSelf(3, normal("p", 1)); err != nil {
		t.Fatal(err)
	}
	if l.LastIndex() != 3 {
		t.Fatalf("LastIndex = %d", l.LastIndex())
	}
	if l.LastLeaderIndex() != 0 {
		t.Fatalf("LastLeaderIndex = %d", l.LastLeaderIndex())
	}
	if l.Has(1) || l.Has(2) || !l.Has(3) {
		t.Fatal("hole structure wrong")
	}
	e, ok := l.Get(3)
	if !ok || e.Approval != types.ApprovedSelf || e.Index != 3 {
		t.Fatalf("Get(3) = %v %v", e, ok)
	}
	if err := l.InsertSelf(3, normal("q", 1)); !errors.Is(err, ErrOccupied) {
		t.Fatalf("double insert: %v", err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendLeaderPrefixContiguity(t *testing.T) {
	l := New(types.NewConfig("a"))
	if err := l.AppendLeader(2, normal("p", 1)); !errors.Is(err, ErrGap) {
		t.Fatalf("gap append: %v", err)
	}
	if err := l.AppendLeader(1, normal("p", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendLeader(2, normal("p", 2)); err != nil {
		t.Fatal(err)
	}
	if l.LastLeaderIndex() != 2 {
		t.Fatalf("LastLeaderIndex = %d", l.LastLeaderIndex())
	}
	// A leader append replaces a self-approved occupant.
	if err := l.InsertSelf(3, normal("x", 9)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendLeader(3, normal("p", 3)); err != nil {
		t.Fatal(err)
	}
	e, _ := l.Get(3)
	if e.PID != pid("p", 3) || e.Approval != types.ApprovedLeader {
		t.Fatalf("slot 3 = %v", e)
	}
	// The replaced entry's pid must no longer resolve.
	if idx := l.FindProposal(pid("x", 9)); idx != 0 {
		t.Fatalf("stale pid still indexed at %d", idx)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwriteLeaderInsidePrefix(t *testing.T) {
	l := New(types.NewConfig("a"))
	for i := types.Index(1); i <= 3; i++ {
		if err := l.AppendLeader(i, normal("p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.OverwriteLeader(2, normal("q", 7)); err != nil {
		t.Fatal(err)
	}
	e, _ := l.Get(2)
	if e.PID != pid("q", 7) {
		t.Fatalf("overwrite failed: %v", e)
	}
	if l.LastLeaderIndex() != 3 {
		t.Fatalf("prefix shrank to %d", l.LastLeaderIndex())
	}
	if err := l.OverwriteLeader(5, normal("q", 8)); !errors.Is(err, ErrGap) {
		t.Fatalf("overwrite beyond prefix: %v", err)
	}
}

func TestPromoteToLeader(t *testing.T) {
	l := New(types.NewConfig("a"))
	if err := l.AppendLeader(1, normal("p", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.InsertSelf(2, normal("p", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.PromoteToLeader(2, 5); err != nil {
		t.Fatal(err)
	}
	e, _ := l.Get(2)
	if e.Approval != types.ApprovedLeader || e.Term != 5 {
		t.Fatalf("promoted = %v", e)
	}
	if l.LastLeaderIndex() != 2 {
		t.Fatalf("prefix = %d", l.LastLeaderIndex())
	}
	if err := l.PromoteToLeader(4, 5); err == nil {
		t.Fatal("promoting a hole must fail")
	}
}

func TestSelfApprovedListing(t *testing.T) {
	l := New(types.NewConfig("a"))
	if err := l.AppendLeader(1, normal("p", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.InsertSelf(3, normal("p", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.InsertSelf(5, normal("p", 5)); err != nil {
		t.Fatal(err)
	}
	sa := l.SelfApproved()
	if len(sa) != 2 || sa[0].Index != 3 || sa[1].Index != 5 {
		t.Fatalf("SelfApproved = %v", sa)
	}
}

func TestConfigTracking(t *testing.T) {
	boot := types.NewConfig("a", "b", "c")
	l := New(boot)
	cfg, idx := l.Config()
	if !cfg.Equal(boot) || idx != 0 {
		t.Fatalf("bootstrap config: %v @%d", cfg, idx)
	}
	bigger := boot.WithMember("d")
	if err := l.AppendLeader(1, types.ConfigEntry(bigger, types.ProposalID{})); err != nil {
		t.Fatal(err)
	}
	cfg, idx = l.Config()
	if !cfg.Equal(bigger) || idx != 1 {
		t.Fatalf("after config entry: %v @%d", cfg, idx)
	}
	// A self-approved config insertion later in the log takes effect too
	// (the paper: "the last configuration appended to the log").
	smaller := bigger.WithoutMember("a")
	if err := l.InsertSelf(4, types.ConfigEntry(smaller, pid("p", 1))); err != nil {
		t.Fatal(err)
	}
	cfg, idx = l.Config()
	if !cfg.Equal(smaller) || idx != 4 {
		t.Fatalf("after self config: %v @%d", cfg, idx)
	}
	// Overwriting that slot with a normal entry reverts to the previous
	// config.
	if err := l.AppendLeader(2, normal("p", 2)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendLeader(3, normal("p", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendLeader(4, normal("p", 4)); err != nil {
		t.Fatal(err)
	}
	cfg, idx = l.Config()
	if !cfg.Equal(bigger) || idx != 1 {
		t.Fatalf("after overwrite: %v @%d", cfg, idx)
	}
}

func TestTruncateSuffix(t *testing.T) {
	l := New(types.NewConfig("a"))
	for i := types.Index(1); i <= 5; i++ {
		if err := l.AppendLeader(i, normal("p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	l.TruncateSuffix(2)
	if l.LastIndex() != 2 || l.LastLeaderIndex() != 2 {
		t.Fatalf("after truncate: last=%d leader=%d", l.LastIndex(), l.LastLeaderIndex())
	}
	if l.FindProposal(pid("p", 4)) != 0 {
		t.Fatal("truncated pid still indexed")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeAndLeaderRange(t *testing.T) {
	l := New(types.NewConfig("a"))
	for i := types.Index(1); i <= 3; i++ {
		if err := l.AppendLeader(i, normal("p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.InsertSelf(5, normal("p", 5)); err != nil {
		t.Fatal(err)
	}
	all := l.Range(1, 10)
	if len(all) != 4 {
		t.Fatalf("Range = %d entries", len(all))
	}
	lr := l.LeaderRange(2, 10)
	if len(lr) != 2 || lr[0].Index != 2 || lr[1].Index != 3 {
		t.Fatalf("LeaderRange = %v", lr)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	boot := types.NewConfig("a", "b", "c")
	l := New(boot)
	for i := types.Index(1); i <= 4; i++ {
		if err := l.AppendLeader(i, normal("p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.InsertSelf(6, normal("q", 1)); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	r, err := Restore(boot, snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.LastIndex() != l.LastIndex() || r.LastLeaderIndex() != l.LastLeaderIndex() {
		t.Fatalf("restore mismatch: last %d/%d leader %d/%d",
			r.LastIndex(), l.LastIndex(), r.LastLeaderIndex(), l.LastLeaderIndex())
	}
	if r.FindProposal(pid("q", 1)) != 6 {
		t.Fatal("pid index not rebuilt")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomOpsKeepInvariants drives random legal operation sequences
// and checks structural invariants plus restore-consistency throughout.
func TestQuickRandomOpsKeepInvariants(t *testing.T) {
	boot := types.NewConfig("a", "b", "c")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New(boot)
		seq := uint64(0)
		for op := 0; op < 60; op++ {
			seq++
			e := normal("p", seq)
			switch rng.Intn(5) {
			case 0: // self insert at a random nearby slot
				idx := types.Index(rng.Intn(20) + 1)
				err := l.InsertSelf(idx, e)
				if err != nil && !errors.Is(err, ErrOccupied) {
					return false
				}
			case 1: // extend the leader prefix
				if err := l.AppendLeader(l.LastLeaderIndex()+1, e); err != nil {
					return false
				}
			case 2: // overwrite inside the prefix
				if top := l.LastLeaderIndex(); top > 0 {
					idx := types.Index(rng.Intn(int(top)) + 1)
					if err := l.OverwriteLeader(idx, e); err != nil {
						return false
					}
				}
			case 3: // promote a self entry if it sits right after the prefix
				idx := l.LastLeaderIndex() + 1
				if ent, ok := l.Get(idx); ok && ent.Approval == types.ApprovedSelf {
					if err := l.PromoteToLeader(idx, types.Term(op)); err != nil {
						return false
					}
				}
			case 4: // occasional truncation (classic-raft style)
				if rng.Intn(4) == 0 && l.LastIndex() > 0 {
					l.TruncateSuffix(types.Index(rng.Intn(int(l.LastIndex()) + 1)))
				}
			}
			if err := l.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		// Snapshot/restore must reproduce the same structure.
		r, err := Restore(boot, l.Snapshot())
		if err != nil {
			t.Logf("restore: %v", err)
			return false
		}
		return r.LastIndex() == l.LastIndex() && r.LastLeaderIndex() == l.LastLeaderIndex()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func leaderEntry(term types.Term, p string, s uint64) types.Entry {
	e := normal(p, s)
	e.Term = term
	return e
}

// buildLeaderLog appends n leader-approved entries with the given term.
func buildLeaderLog(t *testing.T, n int, term types.Term) *Log {
	t.Helper()
	l := New(types.NewConfig("a", "b", "c"))
	for i := 1; i <= n; i++ {
		if err := l.AppendLeader(types.Index(i), leaderEntry(term, "p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestCompactTo(t *testing.T) {
	l := buildLeaderLog(t, 10, 2)
	if err := l.CompactTo(6, 2); err != nil {
		t.Fatal(err)
	}
	if l.FirstIndex() != 7 || l.SnapshotIndex() != 6 || l.SnapshotTerm() != 2 {
		t.Fatalf("boundary: first=%d snap=%d/%d", l.FirstIndex(), l.SnapshotIndex(), l.SnapshotTerm())
	}
	if l.LastIndex() != 10 || l.LastLeaderIndex() != 10 {
		t.Fatalf("last=%d lastLeader=%d", l.LastIndex(), l.LastLeaderIndex())
	}
	if l.Has(6) || !l.Has(7) {
		t.Fatal("boundary occupancy wrong")
	}
	if l.Term(6) != 2 {
		t.Fatalf("Term(boundary) = %d", l.Term(6))
	}
	// Compacted proposals drop out of the primary PID map into the bounded
	// retry window, so recent ones still resolve to their original index;
	// retained ones stay findable directly.
	if got := l.PIDCount(); got != 4 {
		t.Fatalf("PID map has %d entries after compaction, want 4 (retained suffix)", got)
	}
	if idx := l.FindProposal(pid("p", 3)); idx != 3 {
		t.Fatalf("compacted pid lookup = %d, want 3 (retry window)", idx)
	}
	if hits := l.CompactedPIDHits(); hits != 1 {
		t.Fatalf("window hits = %d, want 1", hits)
	}
	if idx := l.FindProposal(pid("p", 8)); idx != 8 {
		t.Fatalf("retained pid lookup = %d, want 8", idx)
	}
	if hits := l.CompactedPIDHits(); hits != 1 {
		t.Fatalf("retained lookup bumped window hits to %d", hits)
	}
	// Appends continue above the old tail.
	if err := l.AppendLeader(11, leaderEntry(2, "p", 11)); err != nil {
		t.Fatal(err)
	}
	// Invalid boundaries are rejected.
	if err := l.CompactTo(6, 2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("re-compact at boundary: %v", err)
	}
	if err := l.CompactTo(99, 2); !errors.Is(err, ErrCompacted) {
		t.Fatalf("compact beyond prefix: %v", err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactToBoundsPIDMap is the ROADMAP regression: before sessions,
// byPID retained every compacted proposal forever, so the map grew without
// bound under continuous traffic. Now it must stay proportional to the
// retained suffix.
func TestCompactToBoundsPIDMap(t *testing.T) {
	const window = 10
	l := New(types.NewConfig("a", "b", "c"))
	next := types.Index(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < window; i++ {
			if err := l.AppendLeader(next, leaderEntry(1, "p", uint64(next))); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := l.CompactTo(next-1, 1); err != nil {
			t.Fatal(err)
		}
		if got := l.PIDCount(); got != 0 {
			t.Fatalf("round %d: %d PID mappings retained after full compaction", round, got)
		}
	}
	// Partial compaction keeps exactly the retained suffix's mappings.
	for i := 0; i < window; i++ {
		if err := l.AppendLeader(next, leaderEntry(1, "p", uint64(next))); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if err := l.CompactTo(next-6, 1); err != nil {
		t.Fatal(err)
	}
	if got := l.PIDCount(); got != 5 {
		t.Fatalf("PID map has %d entries, want 5 (retained suffix)", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactedPIDWindowBounded overflows the sessionless-retry window
// across several compaction rounds and checks LRU behavior: the window
// never exceeds its capacity, recently compacted mappings survive while the
// oldest rounds are evicted, and hits are counted only for window answers.
func TestCompactedPIDWindowBounded(t *testing.T) {
	const round = 256
	rounds := compactedWindowSize/round + 4 // overflow by 4 rounds
	l := New(types.NewConfig("a", "b", "c"))
	next := types.Index(1)
	for r := 0; r < rounds; r++ {
		for i := 0; i < round; i++ {
			if err := l.AppendLeader(next, leaderEntry(1, "p", uint64(next))); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := l.CompactTo(next-1, 1); err != nil {
			t.Fatal(err)
		}
		if got := l.CompactedPIDCount(); got > compactedWindowSize {
			t.Fatalf("round %d: window holds %d mappings, cap %d", r, got, compactedWindowSize)
		}
	}
	if got := l.CompactedPIDCount(); got != compactedWindowSize {
		t.Fatalf("window holds %d mappings after overflow, want %d", got, compactedWindowSize)
	}
	// Everything compacted in the most recent rounds still resolves; the
	// first round was evicted long ago.
	lo := uint64(next) - uint64(compactedWindowSize)
	for s := lo; s < uint64(next); s++ {
		if idx := l.FindProposal(pid("p", s)); idx != types.Index(s) {
			t.Fatalf("recent compacted pid %d resolves to %d, want %d", s, idx, s)
		}
	}
	if hits := l.CompactedPIDHits(); hits != uint64(compactedWindowSize) {
		t.Fatalf("window hits = %d, want %d", hits, compactedWindowSize)
	}
	for s := uint64(1); s <= uint64(round); s++ {
		if idx := l.FindProposal(pid("p", s)); idx != 0 {
			t.Fatalf("evicted pid %d still resolves to %d", s, idx)
		}
	}
	if hits := l.CompactedPIDHits(); hits != uint64(compactedWindowSize) {
		t.Fatalf("missed lookups bumped window hits to %d", hits)
	}
}

// TestCompactedPIDWindowEvictsInLogOrder: one compaction that overflows
// the window evicts the lowest indices, whatever the map order of the
// mappings it moves, so the window's contents depend on the log alone.
func TestCompactedPIDWindowEvictsInLogOrder(t *testing.T) {
	const total = compactedWindowSize + 100
	l := New(types.NewConfig("a", "b", "c"))
	for i := types.Index(1); i <= total; i++ {
		if err := l.AppendLeader(i, leaderEntry(1, "p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.CompactTo(total, 1); err != nil {
		t.Fatal(err)
	}
	for s := uint64(1); s <= total; s++ {
		want := types.Index(s)
		if s <= total-compactedWindowSize {
			want = 0
		}
		if idx := l.FindProposal(pid("p", s)); idx != want {
			t.Fatalf("pid %d resolves to %d, want %d", s, idx, want)
		}
	}
}

// TestCompactedPIDWindowRefresh checks that a window lookup refreshes the
// mapping's recency: a proposal that keeps being retried outlives mappings
// compacted after it.
func TestCompactedPIDWindowRefresh(t *testing.T) {
	const first = 256
	l := New(types.NewConfig("a", "b", "c"))
	next := types.Index(1)
	fill := func(n int) {
		for i := 0; i < n; i++ {
			if err := l.AppendLeader(next, leaderEntry(1, "p", uint64(next))); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := l.CompactTo(next-1, 1); err != nil {
			t.Fatal(err)
		}
	}
	fill(first)
	// Retry proposal 1: served from the window, recency refreshed.
	if idx := l.FindProposal(pid("p", 1)); idx != 1 {
		t.Fatalf("windowed pid resolves to %d, want 1", idx)
	}
	// Compact exactly enough further mappings that the window must evict
	// every unrefreshed first-round mapping (first-1 of them) — but stop
	// short of the refreshed proposal, which lookup moved ahead of them.
	fill(compactedWindowSize - 1)
	if idx := l.FindProposal(pid("p", 1)); idx != 1 {
		t.Fatalf("refreshed pid evicted (lookup = %d)", idx)
	}
	if idx := l.FindProposal(pid("p", 2)); idx != 0 {
		t.Fatalf("unrefreshed pid from the same round survived at %d", idx)
	}
}

// TestTruncatedPIDsNeverEnterWindow: suffix truncation removes uncommitted
// entries, which must not become claimable through the retry window — only
// compaction (committed prefixes) feeds it.
func TestTruncatedPIDsNeverEnterWindow(t *testing.T) {
	l := buildLeaderLog(t, 5, 1)
	l.TruncateSuffix(3) // entries 4 and 5 never committed
	if err := l.CompactTo(3, 1); err != nil {
		t.Fatal(err)
	}
	if idx := l.FindProposal(pid("p", 4)); idx != 0 {
		t.Fatalf("truncated pid resolves to %d via window", idx)
	}
	if idx := l.FindProposal(pid("p", 2)); idx != 2 {
		t.Fatalf("compacted pid resolves to %d, want 2", idx)
	}
	if got := l.CompactedPIDCount(); got != 3 {
		t.Fatalf("window holds %d mappings, want 3", got)
	}
}

func TestCompactThenTruncateSuffixClampsAtBoundary(t *testing.T) {
	l := buildLeaderLog(t, 8, 1)
	if err := l.CompactTo(5, 1); err != nil {
		t.Fatal(err)
	}
	l.TruncateSuffix(2) // below boundary: clamps
	if l.LastIndex() != 5 || l.LastLeaderIndex() != 5 || l.FirstIndex() != 6 {
		t.Fatalf("after clamped truncate: last=%d lastLeader=%d first=%d",
			l.LastIndex(), l.LastLeaderIndex(), l.FirstIndex())
	}
	if err := l.AppendLeader(6, leaderEntry(2, "q", 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInstallSnapshotBeyondLog(t *testing.T) {
	l := buildLeaderLog(t, 3, 1)
	cfg := types.NewConfig("a", "b", "c", "d")
	meta := types.SnapshotMeta{LastIndex: 20, LastTerm: 4, Config: cfg, ConfigIndex: 15}
	if err := l.InstallSnapshot(meta); err != nil {
		t.Fatal(err)
	}
	if l.FirstIndex() != 21 || l.LastIndex() != 20 || l.LastLeaderIndex() != 20 {
		t.Fatalf("after install: first=%d last=%d lastLeader=%d",
			l.FirstIndex(), l.LastIndex(), l.LastLeaderIndex())
	}
	got, ci := l.Config()
	if !got.Equal(cfg) || ci != 15 {
		t.Fatalf("config after install: %v @%d", got, ci)
	}
	if err := l.AppendLeader(21, leaderEntry(4, "p", 99)); err != nil {
		t.Fatal(err)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInstallSnapshotKeepsRetainedSuffix(t *testing.T) {
	l := buildLeaderLog(t, 4, 1)
	// Self-approved entries above the boundary must survive installation.
	if err := l.InsertSelf(6, normal("x", 1)); err != nil {
		t.Fatal(err)
	}
	meta := types.SnapshotMeta{LastIndex: 4, LastTerm: 1, Config: types.NewConfig("a", "b", "c")}
	if err := l.InstallSnapshot(meta); err != nil {
		t.Fatal(err)
	}
	if !l.Has(6) || l.Has(4) {
		t.Fatal("retained suffix wrong after install")
	}
	sa := l.SelfApproved()
	if len(sa) != 1 || sa[0].Index != 6 {
		t.Fatalf("self-approved after install: %v", sa)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigAt(t *testing.T) {
	l := New(types.NewConfig("a", "b", "c"))
	cfg1 := types.NewConfig("a", "b", "c", "d")
	for i := 1; i <= 2; i++ {
		if err := l.AppendLeader(types.Index(i), leaderEntry(1, "p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendLeader(3, types.ConfigEntry(cfg1, types.ProposalID{})); err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 6; i++ {
		if err := l.AppendLeader(types.Index(i), leaderEntry(1, "p", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, ci := l.ConfigAt(2)
	if got.Size() != 3 || ci != 0 {
		t.Fatalf("ConfigAt(2) = %v @%d", got, ci)
	}
	got, ci = l.ConfigAt(5)
	if !got.Equal(cfg1) || ci != 3 {
		t.Fatalf("ConfigAt(5) = %v @%d", got, ci)
	}
}

func TestRestoreSnapshot(t *testing.T) {
	base := buildLeaderLog(t, 10, 3)
	if err := base.CompactTo(7, 3); err != nil {
		t.Fatal(err)
	}
	meta := types.SnapshotMeta{LastIndex: 7, LastTerm: 3, Config: types.NewConfig("a", "b", "c")}
	// Entries from storage may straddle the boundary (crash between
	// snapshot save and compaction); the covered prefix is ignored.
	entries := []types.Entry{}
	for i := types.Index(5); i <= 10; i++ {
		e := leaderEntry(3, "p", uint64(i))
		e.Index = i
		e.Approval = types.ApprovedLeader
		entries = append(entries, e)
	}
	l, err := RestoreSnapshot(types.NewConfig("a", "b", "c"), meta, entries)
	if err != nil {
		t.Fatal(err)
	}
	if l.FirstIndex() != 8 || l.LastIndex() != 10 || l.LastLeaderIndex() != 10 {
		t.Fatalf("restored: first=%d last=%d lastLeader=%d",
			l.FirstIndex(), l.LastIndex(), l.LastLeaderIndex())
	}
	if l.Term(7) != 3 {
		t.Fatalf("boundary term = %d", l.Term(7))
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Restoring an empty suffix leaves an appendable log.
	l2, err := RestoreSnapshot(types.NewConfig("a"), meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastIndex() != 7 || l2.LastLeaderIndex() != 7 {
		t.Fatalf("empty restore: last=%d lastLeader=%d", l2.LastIndex(), l2.LastLeaderIndex())
	}
	if err := l2.AppendLeader(8, leaderEntry(4, "q", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestFindProposalForVerifiesPayload: de-duplication must not trust the
// ProposalID alone. A proposer's in-memory sequence counter resets on
// restart, so a reused pid carrying different bytes is a brand-new proposal
// — both the retained map and the compacted retry window must refuse the
// match (otherwise the fresh proposal is acknowledged with the old entry's
// index and the write is silently lost), while a genuine retry with the
// same bytes still resolves.
func TestFindProposalForVerifiesPayload(t *testing.T) {
	l := New(types.NewConfig("a", "b", "c"))
	for i := 1; i <= 10; i++ {
		e := types.Entry{
			Kind: types.KindNormal,
			PID:  pid("p", uint64(i)),
			Data: []byte(fmt.Sprintf("payload-%d", i)),
			Term: 1,
		}
		if err := l.AppendLeader(types.Index(i), e); err != nil {
			t.Fatal(err)
		}
	}
	// Retained entries compare payloads directly.
	if idx := l.FindProposalFor(pid("p", 8), []byte("payload-8")); idx != 8 {
		t.Fatalf("retained genuine retry = %d, want 8", idx)
	}
	if idx := l.FindProposalFor(pid("p", 8), []byte("fresh-proposal")); idx != 0 {
		t.Fatalf("retained reused pid resolved to %d, want 0", idx)
	}
	// Windowed mappings compare the digest captured before compaction
	// dropped the entries.
	if err := l.CompactTo(6, 1); err != nil {
		t.Fatal(err)
	}
	if idx := l.FindProposalFor(pid("p", 3), []byte("payload-3")); idx != 3 {
		t.Fatalf("windowed genuine retry = %d, want 3", idx)
	}
	if hits := l.CompactedPIDHits(); hits != 1 {
		t.Fatalf("window hits = %d, want 1", hits)
	}
	if idx := l.FindProposalFor(pid("p", 3), []byte("fresh-proposal")); idx != 0 {
		t.Fatalf("windowed reused pid resolved to %d, want 0", idx)
	}
	if hits := l.CompactedPIDHits(); hits != 1 {
		t.Fatalf("digest mismatch counted as a window hit (%d)", hits)
	}
	// The unverified lookup keeps answering for log machinery that reasons
	// about entries already placed in the log.
	if idx := l.FindProposal(pid("p", 3)); idx != 3 {
		t.Fatalf("FindProposal = %d, want 3", idx)
	}
	if idx := l.FindProposalFor(types.ProposalID{}, nil); idx != 0 {
		t.Fatalf("zero pid resolved to %d", idx)
	}
}

// TestInstallSnapshotWindowKeepsDigests: the InstallSnapshot path moves pid
// mappings into the retry window the same way CompactTo does, so it must
// capture payload digests before dropping the covered prefix too.
func TestInstallSnapshotWindowKeepsDigests(t *testing.T) {
	l := New(types.NewConfig("a", "b", "c"))
	for i := 1; i <= 4; i++ {
		e := types.Entry{
			Kind: types.KindNormal,
			PID:  pid("p", uint64(i)),
			Data: []byte(fmt.Sprintf("payload-%d", i)),
			Term: 1,
		}
		if err := l.AppendLeader(types.Index(i), e); err != nil {
			t.Fatal(err)
		}
	}
	meta := types.SnapshotMeta{LastIndex: 3, LastTerm: 1, Config: types.NewConfig("a", "b", "c")}
	if err := l.InstallSnapshot(meta); err != nil {
		t.Fatal(err)
	}
	if idx := l.FindProposalFor(pid("p", 2), []byte("payload-2")); idx != 2 {
		t.Fatalf("windowed genuine retry = %d, want 2", idx)
	}
	if idx := l.FindProposalFor(pid("p", 2), []byte("other-bytes")); idx != 0 {
		t.Fatalf("windowed reused pid resolved to %d, want 0", idx)
	}
}
