package gcs

import (
	"sort"
	"time"

	"newtop/internal/ids"
	"newtop/internal/obs/flight"
)

// This file implements the membership machinery: joins, leaves, suspicion
// handling and the coordinator-driven two-phase flush that gives the group
// virtually synchronous view changes. During a flush every member stops
// sending, ships its unstable messages to the coordinator, and the
// coordinator's commit carries the union (the "cut"): every message any
// survivor holds is delivered by all survivors before the new view is
// installed, which is the paper's atomicity guarantee — all functioning
// members deliver a message, or none do.

// handleJoin processes a join request (mu held). Non-coordinators forward
// it; the acting coordinator queues the joiner for the next view.
func (g *Group) handleJoin(m *joinMsg) {
	if g.state == stateLeft {
		return
	}
	if g.state == stateJoining {
		// We are not installed yet; park the request — view installation
		// forwards parked requests to the acting coordinator.
		g.pendingJoins[m.Joiner] = true
		return
	}
	coord := g.actingCoordinator()
	if coord != g.me {
		g.sendLocked(coord, g.node.encode(m))
		return
	}
	if g.view.Contains(m.Joiner) || g.pendingJoins[m.Joiner] {
		return
	}
	g.pendingJoins[m.Joiner] = true
	g.maybeStartFlushLocked()
}

// handleLeave processes a graceful leave announcement (mu held).
func (g *Group) handleLeave(m *leaveMsg) {
	if g.state == stateLeft {
		return
	}
	if g.state == stateJoining {
		g.pendingLeaves[m.Leaver] = true
		return
	}
	coord := g.actingCoordinator()
	if coord != g.me {
		g.sendLocked(coord, g.node.encode(m))
		return
	}
	if !g.view.Contains(m.Leaver) || g.pendingLeaves[m.Leaver] {
		return
	}
	g.pendingLeaves[m.Leaver] = true
	g.maybeStartFlushLocked()
}

// handleSuspect processes a failure report (mu held). Only the acting
// coordinator acts on reports; everyone else relies on its own suspector.
func (g *Group) handleSuspect(m *suspectMsg) {
	if g.state == stateJoining || g.state == stateLeft {
		return
	}
	if g.actingCoordinator() != g.me {
		return
	}
	if m.Accused == g.me || !g.view.Contains(m.Accused) || g.suspects[m.Accused] {
		return
	}
	g.suspects[m.Accused] = true
	g.maybeStartFlushLocked()
}

// maybeStartFlushLocked begins a membership round if this member is the
// acting coordinator and there is a change to make (or a stuck flush to
// supersede).
func (g *Group) maybeStartFlushLocked() {
	if g.state != stateNormal && g.state != stateFlushing {
		return
	}
	if g.fl != nil || g.actingCoordinator() != g.me {
		return
	}
	target := make([]ids.ProcessID, 0, len(g.view.Members)+len(g.pendingJoins))
	for _, p := range g.view.Members {
		if !g.suspects[p] && !g.pendingLeaves[p] {
			target = append(target, p)
		}
	}
	for p := range g.pendingJoins {
		target = append(target, p)
	}
	target = ids.SortProcesses(target)
	if !ids.ContainsProcess(target, g.me) {
		return // we are leaving; nothing to coordinate
	}
	unchanged := len(target) == len(g.view.Members)
	if unchanged {
		for i, p := range target {
			if g.view.Members[i] != p {
				unchanged = false
				break
			}
		}
	}
	if unchanged && g.state == stateNormal {
		return
	}

	newSeq := g.maxViewSeq + 1
	g.maxViewSeq = newSeq
	prop := &proposeMsg{Group: g.id, NewSeq: newSeq, Proposer: g.me, Members: target}
	g.fl = &flushCoord{
		seq:       newSeq,
		members:   target,
		acks:      make(map[ids.ProcessID]*flushAckMsg, len(target)),
		startedAt: time.Now(), //lint:ok detclock observability: view-change latency timer, no ordering decision
	}
	g.state = stateFlushing
	g.curProposal = prop
	g.proposalAt = g.fl.startedAt
	g.fr.Record(flight.Event{Type: flight.EvFlushPropose, Proc: g.frProc, Group: g.frGroup,
		Sender: flight.NoSender, View: uint32(newSeq), A: uint64(len(target))})

	enc := g.node.encode(prop)
	for _, p := range target {
		if p != g.me {
			g.sendLocked(p, enc)
		}
	}
	// Self-ack with our own unstable state.
	g.acceptFlushAckLocked(g.makeFlushAckLocked(prop))
}

// makeFlushAckLocked snapshots this member's unstable state for a flush.
func (g *Group) makeFlushAckLocked(p *proposeMsg) *flushAckMsg {
	ack := &flushAckMsg{
		Group:    g.id,
		NewSeq:   p.NewSeq,
		Proposer: p.Proposer,
		From:     g.me,
		Joining:  g.state == stateJoining,
	}
	if ack.Joining {
		return ack
	}
	ack.Unstable = make([]*dataMsg, 0, len(g.store))
	for _, m := range g.store {
		ack.Unstable = append(ack.Unstable, m)
	}
	sort.Slice(ack.Unstable, func(i, j int) bool {
		a, b := ack.Unstable[i], ack.Unstable[j]
		if a.Sender != b.Sender {
			return a.Sender.Less(b.Sender)
		}
		return a.Seq < b.Seq
	})
	ack.Assigns = g.assignSnapshotLocked()
	g.fr.Record(flight.Event{Type: flight.EvFlushAck, Proc: g.frProc, Group: g.frGroup,
		Sender: flight.NoSender, View: uint32(p.NewSeq), A: uint64(len(ack.Unstable))})
	return ack
}

// handlePropose processes a view proposal (mu held).
func (g *Group) handlePropose(p *proposeMsg) {
	if g.state == stateLeft {
		return
	}
	if !ids.ContainsProcess(p.Members, g.me) {
		return // we have been excluded; our own suspector reshapes our world
	}
	// Proposals must come from a member of our current view (joiners have
	// no view yet and trust any proposal that includes them). Competing
	// proposals are arbitrated by the (seq, proposer) preference below.
	if g.state != stateJoining {
		if !g.view.Contains(p.Proposer) {
			return
		}
		if p.NewSeq <= g.view.Seq {
			return
		}
	}
	if cur := g.curProposal; cur != nil {
		switch {
		case cur.NewSeq == p.NewSeq && cur.Proposer == p.Proposer:
			// Retransmitted proposal: fall through and re-ack.
		case cur.NewSeq > p.NewSeq:
			return
		case cur.NewSeq == p.NewSeq && cur.Proposer.Less(p.Proposer):
			return // keep the smaller proposer on a tie
		}
	}
	if p.NewSeq > g.maxViewSeq {
		g.maxViewSeq = p.NewSeq
	}
	// Abandon our own competing round if theirs wins.
	if g.fl != nil && (p.NewSeq > g.fl.seq || (p.NewSeq == g.fl.seq && p.Proposer.Less(g.me))) {
		g.fl = nil
	}
	g.lastHeard[p.Proposer] = time.Now() //lint:ok detclock failure-detector liveness bookkeeping
	g.curProposal = p
	g.proposalAt = time.Now() //lint:ok detclock liveness: flush-timeout arming and view-change latency observation
	if g.state == stateNormal {
		g.state = stateFlushing
	}
	ack := g.makeFlushAckLocked(p)
	if p.Proposer == g.me {
		g.acceptFlushAckLocked(ack)
		return
	}
	g.sendLocked(p.Proposer, g.node.encode(ack))
}

// handleFlushAck processes one member's flush acknowledgement at the
// coordinator (mu held).
func (g *Group) handleFlushAck(a *flushAckMsg) {
	if g.fl == nil || a.Proposer != g.me || a.NewSeq != g.fl.seq {
		return
	}
	if !ids.ContainsProcess(g.fl.members, a.From) {
		return
	}
	g.lastHeard[a.From] = time.Now() //lint:ok detclock failure-detector liveness bookkeeping
	g.acceptFlushAckLocked(a)
}

// acceptFlushAckLocked records an ack and commits when the round is
// complete.
func (g *Group) acceptFlushAckLocked(a *flushAckMsg) {
	if g.fl == nil {
		return
	}
	g.fl.acks[a.From] = a
	if len(g.fl.acks) < len(g.fl.members) {
		return
	}
	g.commitFlushLocked()
}

// commitFlushLocked builds the cut from all acks and installs the view.
func (g *Group) commitFlushLocked() {
	fl := g.fl
	cut := make(map[ids.MsgID]*dataMsg)
	assignSet := make(map[ids.MsgID]uint64)
	for _, ack := range fl.acks {
		for _, m := range ack.Unstable {
			if m.ViewSeq == g.view.Seq && m.ViewInstaller == g.view.Installer {
				cut[m.msgID()] = m
			}
		}
		for _, as := range ack.Assigns {
			assignSet[as.msgID()] = as.Global
		}
	}
	commit := &commitMsg{
		Group:    g.id,
		NewSeq:   fl.seq,
		Proposer: g.me,
		Members:  fl.members,
		Order:    g.cfg.Order,
		Liveness: g.cfg.Liveness,
		Leader:   g.cfg.Leader,
	}
	commit.Cut = make([]*dataMsg, 0, len(cut))
	for _, m := range cut {
		commit.Cut = append(commit.Cut, m)
	}
	sort.Slice(commit.Cut, func(i, j int) bool {
		a, b := commit.Cut[i], commit.Cut[j]
		if a.Sender != b.Sender {
			return a.Sender.Less(b.Sender)
		}
		return a.Seq < b.Seq
	})
	commit.Assigns = make([]assign, 0, len(assignSet))
	for id, global := range assignSet {
		commit.Assigns = append(commit.Assigns, assign{Sender: id.Sender, Seq: id.Seq, Global: global})
	}
	sort.Slice(commit.Assigns, func(i, j int) bool { return commit.Assigns[i].Global < commit.Assigns[j].Global })

	enc := g.node.encode(commit)
	for _, p := range fl.members {
		if p != g.me {
			g.sendLocked(p, enc)
		}
	}
	g.applyCommitLocked(commit)
}

// handleCommit processes a view commit (mu held).
func (g *Group) handleCommit(c *commitMsg) {
	if g.state == stateLeft {
		return
	}
	if !ids.ContainsProcess(c.Members, g.me) {
		return
	}
	if g.state != stateJoining && !g.view.Contains(c.Proposer) {
		return
	}
	if g.state == stateJoining {
		if c.Order != g.cfg.Order || c.Liveness != g.cfg.Liveness || c.Leader != g.cfg.Leader {
			g.closeLocked(ErrConfigMismatch)
			return
		}
	} else if c.NewSeq <= g.view.Seq {
		return
	}
	g.lastHeard[c.Proposer] = time.Now() //lint:ok detclock failure-detector liveness bookkeeping
	g.applyCommitLocked(c)
}

// applyCommitLocked delivers the cut (all-or-none atomicity) and installs
// the new view. Joiners skip the cut: old-view messages belong to members
// of the old view only.
func (g *Group) applyCommitLocked(c *commitMsg) {
	g.fr.Record(flight.Event{Type: flight.EvFlushCommit, Proc: g.frProc, Group: g.frGroup,
		Sender: flight.NoSender, View: uint32(c.NewSeq), A: uint64(len(c.Cut))})
	if g.state != stateJoining {
		g.mergeAssignsLocked(c.Assigns)
		g.deliverCutLocked(c.Cut)
	}
	g.installViewLocked(View{Seq: c.NewSeq, Installer: c.Proposer, Members: c.Members})
}

// deliverCutLocked force-delivers the undelivered messages of the cut in a
// deterministic, causality- and order-respecting sequence: sequencer-
// ordered messages first (by global sequence), everything else by stamp.
// Pending messages outside the cut are discarded — they were received by
// no surviving ack and count as "delivered by none".
func (g *Group) deliverCutLocked(cut []*dataMsg) {
	// Cut messages arrive decoded off the wire (no local sender index),
	// and when concurrent membership rounds raced, a cut can even name
	// senders outside the locally installed view; a spill map catches
	// those so their delivered floor is still tracked for this pass.
	var spill map[ids.ProcessID]uint64
	deliveredOf := func(m *dataMsg) uint64 {
		if si := g.midx.posOf(m.Sender); si >= 0 {
			return g.delivered[si]
		}
		return spill[m.Sender]
	}
	advance := func(m *dataMsg) {
		if si := g.midx.posOf(m.Sender); si >= 0 {
			g.delivered[si] = m.Seq
			return
		}
		if spill == nil {
			spill = make(map[ids.ProcessID]uint64)
		}
		spill[m.Sender] = m.Seq
	}
	todo := make([]*dataMsg, 0, len(cut))
	for _, m := range cut {
		if m.Seq > deliveredOf(m) {
			todo = append(todo, m)
		}
	}
	sort.Slice(todo, func(i, j int) bool {
		gi, iOK := g.assigns[todo[i].msgID()]
		gj, jOK := g.assigns[todo[j].msgID()]
		// Nulls never carry assignments; order them with the unassigned.
		switch {
		case iOK && jOK:
			return gi < gj
		case iOK:
			return true
		case jOK:
			return false
		default:
			return todo[i].stamp().Less(todo[j].stamp())
		}
	})
	for _, m := range todo {
		if m.Seq > deliveredOf(m) {
			advance(m)
		}
		if !m.Null {
			g.frRecord(flight.EvCutDeliver, g.midx.posOf(m.Sender), m.Seq, m.Lamport, 0)
			g.stats.AppDelivered++
			g.stats.CutDelivered++
			g.metrics.appDelivered.Inc()
			g.metrics.cutDelivered.Inc()
			g.pushEventLocked(Event{Type: EventDeliver, Deliver: &Delivery{
				Sender:  m.Sender,
				Payload: m.Payload,
				Stamp:   m.stamp(),
				ViewSeq: m.ViewSeq,
			}}, g.midx.posOf(m.Sender), m.Seq, uint32(m.ViewSeq))
		}
	}
}
