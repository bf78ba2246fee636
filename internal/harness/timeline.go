package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/hraft-io/hraft/internal/types"
)

// EventKind classifies timeline events.
type EventKind int

const (
	// EventLeaderElected marks a node assuming leadership of a group.
	EventLeaderElected EventKind = iota + 1
	// EventConfigChange marks a committed configuration entry.
	EventConfigChange
	// EventCrash marks a host stopping.
	EventCrash
	// EventRestart marks a host restarting.
	EventRestart
	// EventNote is a free-form annotation from a scenario script.
	EventNote
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventLeaderElected:
		return "leader"
	case EventConfigChange:
		return "config"
	case EventCrash:
		return "crash"
	case EventRestart:
		return "restart"
	case EventNote:
		return "note"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one entry of a run's timeline.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Kind classifies it.
	Kind EventKind
	// Group is the log group ("" for flat clusters, "local/<cluster>" or
	// "global" for C-Raft).
	Group string
	// Node is the site involved.
	Node types.NodeID
	// Term is the term at the event (leader elections).
	Term types.Term
	// Detail is a human-readable summary.
	Detail string
}

// Timeline records notable events of a simulated run for post-mortems and
// scenario output. It deduplicates repeated leader observations (drains
// see the same leader every event).
type Timeline struct {
	events []Event
	// lastLeader tracks the last recorded leader per (group, term) to
	// avoid duplicates.
	lastLeader map[leaderKey]types.NodeID
}

// leaderKey identifies one term of one log group.
type leaderKey struct {
	group string
	term  types.Term
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{lastLeader: make(map[leaderKey]types.NodeID)}
}

// ObserveLeader records a leadership observation, ignoring repeats of the
// same (group, term, node).
func (tl *Timeline) ObserveLeader(at time.Duration, group string, term types.Term, node types.NodeID) {
	key := leaderKey{group, term}
	if tl.lastLeader[key] == node {
		return
	}
	tl.lastLeader[key] = node
	tl.events = append(tl.events, Event{
		At: at, Kind: EventLeaderElected, Group: group, Node: node, Term: term,
		Detail: fmt.Sprintf("%s leads %s at term %d", node, groupName(group), term),
	})
}

// ObserveConfig records a committed configuration change.
func (tl *Timeline) ObserveConfig(at time.Duration, group string, node types.NodeID, cfg types.Config) {
	tl.events = append(tl.events, Event{
		At: at, Kind: EventConfigChange, Group: group, Node: node,
		Detail: fmt.Sprintf("configuration -> %v", cfg),
	})
}

// Crash records a host stopping.
func (tl *Timeline) Crash(at time.Duration, node types.NodeID) {
	tl.events = append(tl.events, Event{
		At: at, Kind: EventCrash, Node: node,
		Detail: fmt.Sprintf("%s crashed", node),
	})
}

// Restart records a host restarting.
func (tl *Timeline) Restart(at time.Duration, node types.NodeID) {
	tl.events = append(tl.events, Event{
		At: at, Kind: EventRestart, Node: node,
		Detail: fmt.Sprintf("%s restarted", node),
	})
}

// Note records a free-form annotation.
func (tl *Timeline) Note(at time.Duration, format string, args ...any) {
	tl.events = append(tl.events, Event{
		At: at, Kind: EventNote, Detail: fmt.Sprintf(format, args...),
	})
}

// Events returns the recorded events sorted by time (stable for equal
// times).
func (tl *Timeline) Events() []Event {
	out := append([]Event(nil), tl.events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Len returns the number of recorded events.
func (tl *Timeline) Len() int { return len(tl.events) }

// LeaderChanges counts distinct leadership events in a group.
func (tl *Timeline) LeaderChanges(group string) int {
	n := 0
	for _, e := range tl.events {
		if e.Kind == EventLeaderElected && e.Group == group {
			n++
		}
	}
	return n
}

// Print renders the timeline to w.
func (tl *Timeline) Print(w io.Writer) {
	for _, e := range tl.Events() {
		fmt.Fprintf(w, "%10s | %-7s | %s\n",
			e.At.Round(time.Millisecond), e.Kind, e.Detail)
	}
}

func groupName(group string) string {
	if group == "" {
		return "the cluster"
	}
	return group
}
