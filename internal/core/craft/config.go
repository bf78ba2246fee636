package craft

import (
	"errors"
	"math/rand"
	"time"

	"github.com/hraft-io/hraft/internal/storage"
	"github.com/hraft-io/hraft/internal/trace"
	"github.com/hraft-io/hraft/internal/types"
)

// Config parametrizes a C-Raft site.
type Config struct {
	// ID is this site's identity.
	ID types.NodeID
	// Cluster is the cluster this site belongs to; it doubles as the
	// site's member identity at the inter-cluster (global) level.
	Cluster types.NodeID
	// ClusterBootstrap is the cluster's initial local membership.
	ClusterBootstrap types.Config
	// GlobalBootstrap is the initial set of clusters (global membership).
	// A cluster formed later uses an empty bootstrap and joins through the
	// global join protocol.
	GlobalBootstrap types.Config
	// Storage is the site's stable storage for the local log. The global
	// instance needs no separate storage: its durable state is exactly the
	// global-state entries replicated in the local log.
	Storage storage.Storage
	// BatchSize is how many locally committed application entries form one
	// global-log batch (paper experiments: 10).
	BatchSize int
	// BatchDelay, when non-zero, flushes a partial batch whose oldest
	// entry has waited this long (the paper's "amount of time passing"
	// batch trigger).
	BatchDelay time.Duration
	// LocalHeartbeat is the intra-cluster leader tick period (paper:
	// 100 ms).
	LocalHeartbeat time.Duration
	// GlobalHeartbeat is the inter-cluster leader tick period (paper:
	// 500 ms).
	GlobalHeartbeat time.Duration
	// LocalElectionMin/Max bound local election timeouts (0 = derived).
	LocalElectionMin time.Duration
	// LocalElectionMax must exceed LocalElectionMin when set.
	LocalElectionMax time.Duration
	// GlobalElectionMin/Max bound global election timeouts (0 = derived;
	// the default exceeds the largest inter-region round trip).
	GlobalElectionMin time.Duration
	// GlobalElectionMax must exceed GlobalElectionMin when set.
	GlobalElectionMax time.Duration
	// LocalProposalTimeout is the local re-propose period (0 = derived).
	LocalProposalTimeout time.Duration
	// GlobalProposalTimeout is the global re-propose period (0 = derived).
	GlobalProposalTimeout time.Duration
	// MemberTimeoutRounds configures silent-leave detection at both
	// levels.
	MemberTimeoutRounds int
	// SnapshotThreshold enables local-log compaction: once this many
	// entries commit beyond the last snapshot, the site snapshots its
	// replayed global state (term, global log, batching position) and
	// compacts the local log. Lagging or restarted cluster members catch up
	// via InstallSnapshot instead of full replay. 0 disables compaction.
	// The global log is never compacted (its entries are batches whose
	// compaction would require cross-cluster coordination).
	SnapshotThreshold int
	// AppSnapshotter, when set, folds the embedding application's own
	// state into local-log snapshots: applications that build state from
	// locally committed entries can then enable compaction without losing
	// the ability to restart or catch up from a snapshot. Compaction waits
	// until the application has applied everything the snapshot would
	// cover.
	AppSnapshotter types.Snapshotter
	// MaxEntriesPerAppend caps AppendEntries payloads at both consensus
	// levels (0 = unlimited).
	MaxEntriesPerAppend int
	// MaxInflightAppends bounds outstanding AppendEntries messages per
	// peer at both consensus levels (0 = replica.DefaultMaxInflight).
	// Secondary to MaxInflightBytes.
	MaxInflightAppends int
	// MaxInflightBytes bounds the encoded entry bytes outstanding per peer
	// at both consensus levels (0 = replica.DefaultMaxInflightBytes).
	MaxInflightBytes int
	// MaxSnapshotChunk is the InstallSnapshot chunk payload size in bytes
	// for local-log snapshot transfers (0 = whole snapshot in one
	// message).
	MaxSnapshotChunk int
	// MaxInflightProposalBytes bounds the encoded payload bytes of a
	// site's broadcast-but-unresolved local proposals (0 = unlimited); see
	// fastraft.Config.MaxInflightProposalBytes.
	MaxInflightProposalBytes int
	// MaxInflightBatches caps this cluster's unresolved global batch
	// proposals (0 = unlimited): batching pauses — locally committed
	// entries simply wait unbatched — until earlier batches resolve, so a
	// fast cluster cannot flood the slower global level.
	MaxInflightBatches int
	// SessionTTL expires idle client sessions at the local (intra-cluster)
	// level (0 = no expiry).
	SessionTTL time.Duration
	// DisableFastTrack forces the classic track at both levels (ablation).
	DisableFastTrack bool
	// Paced keeps the paper's round model at both levels (see
	// fastraft.Config.Paced); the virtual-time paper figures run paced.
	Paced bool
	// Rand drives randomized timeouts; required for deterministic
	// simulation.
	Rand *rand.Rand
	// Recorder, when non-nil, records protocol events and proposal
	// lifecycle spans into a flight-recorder ring (see internal/trace).
	// The local instance records directly; the global instance (when this
	// site leads its cluster) records through a derived recorder sharing
	// the same ring, so both layers interleave into one narrative. Nil
	// disables recording at negligible cost.
	Recorder *trace.Recorder
}

// Defaults fills unset values with the paper's experimental settings.
func (c *Config) Defaults() {
	if c.BatchSize == 0 {
		c.BatchSize = 10
	}
	if c.LocalHeartbeat == 0 {
		c.LocalHeartbeat = 100 * time.Millisecond
	}
	if c.GlobalHeartbeat == 0 {
		c.GlobalHeartbeat = 500 * time.Millisecond
	}
	if c.GlobalElectionMin == 0 {
		c.GlobalElectionMin = 4 * c.GlobalHeartbeat
	}
	if c.GlobalElectionMax == 0 {
		c.GlobalElectionMax = 2 * c.GlobalElectionMin
	}
	if c.GlobalProposalTimeout == 0 {
		c.GlobalProposalTimeout = 6 * c.GlobalHeartbeat
	}
	if c.MemberTimeoutRounds == 0 {
		c.MemberTimeoutRounds = 5
	}
}

func (c *Config) validate() error {
	if c.ID == types.None {
		return errors.New("craft: config needs an ID")
	}
	if c.Cluster == types.None {
		return errors.New("craft: config needs a Cluster")
	}
	if c.Storage == nil {
		return errors.New("craft: config needs Storage")
	}
	if c.Rand == nil {
		return errors.New("craft: config needs Rand")
	}
	return nil
}
