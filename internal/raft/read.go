package raft

import (
	"time"

	"github.com/hraft-io/hraft/internal/readpath"
	"github.com/hraft-io/hraft/internal/types"
)

// Linearizable reads (see internal/readpath). The shared Frontend owns
// token assignment, leader-side serving, follower forwarding and retries;
// this file only wires it to the node's live state and lifecycle.

// newReadFrontend builds the node's read frontend over its live state.
// The sequence offset is Rand-drawn so a restart cannot recycle the IDs
// of reads still pending at the leader (leader-side dedup is by
// (origin, ID)).
func (n *Node) newReadFrontend() *readpath.Frontend {
	return readpath.NewFrontend(readpath.NodeView{
		Self:         n.cfg.ID,
		IsLeader:     func() bool { return n.role == types.RoleLeader },
		LeaderID:     func() types.NodeID { return n.leaderID },
		CommitIndex:  func() types.Index { return n.commitIndex },
		Floor:        func() types.Index { return n.readFloor },
		Manager:      func() *readpath.Manager { return n.readMgr },
		Send:         n.send,
		RetryTimeout: n.cfg.ProposalTimeout,
		RetrySoon:    n.cfg.HeartbeatInterval,
	}, uint64(n.cfg.Rand.Int63()), n.metrics, n.rec)
}

// newReadManager builds the leadership's read manager, sharing the
// replica tracker's srtt estimates for lease deration.
func (n *Node) newReadManager() *readpath.Manager {
	return readpath.NewManager(readpath.Config{
		Self:      n.cfg.ID,
		LeaseBase: n.cfg.ElectionTimeoutMin,
		RTT: func(id types.NodeID) time.Duration {
			if n.progress == nil {
				return 0
			}
			if p := n.progress.Get(id); p != nil {
				return p.RTT()
			}
			return 0
		},
		Recorder: n.rec,
	}, n.metrics)
}

// Read registers a read under the given consistency mode and returns its
// token; the read resolves through TakeReadDone with the linearization
// index the state machine must be applied through before serving it.
func (n *Node) Read(now time.Duration, c types.ReadConsistency) uint64 {
	n.now = now
	tok := n.reads.Read(now, c)
	n.react()
	return tok
}

// TakeReadDone drains resolved reads.
func (n *Node) TakeReadDone() []types.ReadDone { return n.reads.TakeDone() }

// PendingReads counts unresolved reads originated on this node.
func (n *Node) PendingReads() int { return n.reads.PendingCount() }
