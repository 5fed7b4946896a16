package hier

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// TierID says which of the two algorithm instances a round message belongs
// to, so a representative can run both over one mailbox.
type TierID uint8

// The two tiers.
const (
	TierInner TierID = iota + 1
	TierOuter
)

// TMsg is the round message of §4.2, tagged with its tier. As in core, the
// mark is informational: only the arrival time enters the computation, so a
// Byzantine sender's lever is *when* (and to whom) it sends, not what.
type TMsg struct {
	Tier TierID
	Mark clock.Local
}

// Discipline relays a representative's outer-tier adjustment to its
// followers. A zero-adjustment Discipline is still sent every outer round:
// it doubles as the liveness heartbeat the election monitors.
type Discipline struct {
	Adj   float64
	Round int32
}

// hTimer is the payload of a tier's TIMER interrupt. Unlike core.Proc — in
// which CORR changes only at the update that also sets the next timer — a
// Member's CORR can jump *between* setting a timer and its firing (an outer
// adjustment or a discipline message lands mid-round), which would silently
// shift the pending mark off the logical schedule: a forward jump eats into
// the next collection window until the whole cluster misses its arrivals.
// So every CORR jump re-arms the other tier's pending timer on the new
// clock, and gen identifies the superseded timer so it is ignored when the
// engine (which has no cancellation) still delivers it. Member also ignores
// timers with any other payload (e.g. left pending by a predecessor
// automaton).
type hTimer struct {
	tier TierID
	gen  uint32
}

// phase mirrors §4.2's FLAG.
type phase uint8

const (
	phaseBroadcast phase = iota + 1
	phaseUpdate
)

// tier is one §4.2 instance. It restates core.Proc's per-round state rather
// than embedding it because the hierarchy shares a single CORR between two
// concurrent instances and slots arrivals by group (cluster rank inside,
// cluster id outside) rather than by sender id.
type tier struct {
	f             int
	delta, window float64
	p             float64
	t, base       clock.Local
	rnd           int
	flag          phase
	arr           []float64
	scratch       []float64
}

func newTier(p analysis.Params) *tier {
	arr := make([]float64, p.N)
	for i := range arr {
		arr[i] = math.Inf(-1) // never-heard sentinel; reduce_f discards them
	}
	return &tier{
		f:     p.F,
		delta: p.Delta, window: p.Window(), p: p.P,
		t: clock.Local(p.T0), base: clock.Local(p.T0),
		flag: phaseBroadcast,
		arr:  arr, scratch: make([]float64, p.N),
	}
}

// adjustment computes AV = mid(reduce_f(ARR)) and ADJ = T + δ − AV, with
// core.Proc's out-of-spec skip guard: if more than f senders are missing the
// sentinels survive reduce_f and the average is meaningless, so the update
// is skipped rather than poisoning the clock.
func (t *tier) adjustment() float64 {
	copy(t.scratch, t.arr)
	av, err := multiset.MidpointSelect(t.scratch, t.f)
	if err != nil {
		// Unreachable for validated configs: |ARR| ≥ 3f+1 > 2f.
		panic(fmt.Sprintf("hier: averaging: %v", err))
	}
	adj := float64(t.t) + t.delta - av
	if math.IsInf(adj, 0) || math.IsNaN(adj) {
		adj = 0
	}
	return adj
}

// advance moves to the next round mark after an update.
func (t *tier) advance() {
	t.rnd++
	t.base += clock.Local(t.p)
	t.t = t.base
	t.flag = phaseBroadcast
}

// Member is the two-tier automaton of package hier: every process runs one.
// The inner tier is always live; the outer tier exists only while the
// process is its cluster's acting representative (it is created in place on
// election). Both tiers update the one shared CORR, so local time is
// Ph + CORR exactly as in core, and followers additionally apply the
// representative's relayed outer adjustments.
//
// The timing of the two tiers is interleaved, not synchronized: inner marks
// sit at T⁰+iP, outer marks at T⁰+P/2+iP, and both collection windows are
// far shorter than P/2 in any validated regime, so a round's CORR jumps
// (inner update, then outer update and discipline delivery) happen strictly
// between active collection windows and act as common-mode shifts within a
// cluster.
type Member struct {
	cfg     Config
	id      sim.ProcID
	cluster int
	lo, hi  sim.ProcID
	cands   int // candidate count in the own cluster

	corr     clock.Local
	inner    *tier
	outer    *tier // non-nil while acting representative
	repRank  int
	lastDisc clock.Local
	lastAdj  float64

	// Pending-timer bookkeeping: each tier has at most one live timer; the
	// generation counters invalidate superseded ones and the marks remember
	// the scheduled logical time for re-arming after a CORR jump.
	innerGen, outerGen uint32
	innerAt, outerAt   clock.Local
}

var (
	_ sim.Process    = (*Member)(nil)
	_ sim.CorrHolder = (*Member)(nil)
)

// NewMember builds the automaton for process id with the given initial
// correction. The caller is responsible for cfg.Validate.
func NewMember(cfg Config, id sim.ProcID, initialCorr clock.Local) *Member {
	cfg = cfg.withDefaults()
	cluster := cfg.ClusterOf(id)
	lo, hi := cfg.ClusterBounds(cluster)
	cands := cfg.Candidates
	if size := int(hi - lo); cands > size {
		cands = size
	}
	return &Member{
		cfg: cfg, id: id, cluster: cluster, lo: lo, hi: hi, cands: cands,
		corr:  initialCorr,
		inner: newTier(cfg.InnerParams(cluster)),
	}
}

// Corr implements sim.CorrHolder: the local time is Ph_p + CORR.
func (m *Member) Corr() clock.Local { return m.corr }

// Representative returns the id this member currently treats as its
// cluster's representative.
func (m *Member) Representative() sim.ProcID { return m.lo + sim.ProcID(m.repRank) }

// ActingRep reports whether this member is running the outer tier.
func (m *Member) ActingRep() bool { return m.outer != nil }

// Round returns the inner tier's current round index.
func (m *Member) Round() int { return m.inner.rnd }

// LastAdj returns the inner adjustment applied at the most recent update.
func (m *Member) LastAdj() float64 { return m.lastAdj }

func (m *Member) local(ctx *sim.Context) clock.Local { return ctx.PhysNow() + m.corr }

// armInner arranges the inner tier's TIMER for logical time T on the
// current clock, superseding any pending inner timer.
func (m *Member) armInner(ctx *sim.Context, T clock.Local) {
	m.innerGen++
	m.innerAt = T
	ctx.SetTimer(T-m.corr, hTimer{TierInner, m.innerGen})
}

// armOuter is armInner's outer-tier twin.
func (m *Member) armOuter(ctx *sim.Context, T clock.Local) {
	m.outerGen++
	m.outerAt = T
	ctx.SetTimer(T-m.corr, hTimer{TierOuter, m.outerGen})
}

// bumpFromInner applies an inner-tier CORR jump and re-arms the outer
// tier's pending timer (if any) on the new clock; the inner handler sets
// its own next timer afterwards.
func (m *Member) bumpFromInner(ctx *sim.Context, adj float64) {
	m.corr += clock.Local(adj)
	if m.outer != nil {
		m.armOuter(ctx, m.outerAt)
	}
}

// bumpFromOuter applies an outer-tier (or discipline) CORR jump and re-arms
// the inner tier's pending timer on the new clock.
func (m *Member) bumpFromOuter(ctx *sim.Context, adj float64) {
	m.corr += clock.Local(adj)
	m.armInner(ctx, m.innerAt)
}

// Receive implements sim.Process.
func (m *Member) Receive(ctx *sim.Context, msg sim.Message) {
	switch msg.Kind {
	case sim.KindOrdinary:
		m.receiveOrdinary(ctx, msg)

	case sim.KindStart:
		m.lastDisc = m.local(ctx)
		m.innerBroadcast(ctx)
		if m.id == m.Representative() {
			m.becomeRep(ctx)
		}

	case sim.KindTimer:
		ht, ok := msg.Payload.(hTimer)
		if !ok {
			return
		}
		switch {
		case ht.tier == TierInner && ht.gen == m.innerGen:
			m.innerTimer(ctx)
		case ht.tier == TierOuter && ht.gen == m.outerGen:
			m.outerTimer(ctx)
		}
	}
}

// receiveOrdinary routes arrivals and discipline. Unlike core.Proc — where
// any ordinary message refreshes ARR — only TMsg payloads record arrivals
// here, routed by tier and sender group; the Byzantine lever (arrival-time
// poisoning) is unchanged since a faulty process controls its TMsgs' timing.
func (m *Member) receiveOrdinary(ctx *sim.Context, msg sim.Message) {
	switch pl := msg.Payload.(type) {
	case TMsg:
		from := m.cfg.ClusterOf(msg.From)
		switch {
		case pl.Tier == TierInner && from == m.cluster:
			m.inner.arr[int(msg.From-m.lo)] = float64(m.local(ctx))
		case pl.Tier == TierOuter && from != m.cluster && m.outer != nil:
			// Outer arrivals are slotted by cluster, not by sender id, so a
			// freshly elected foreign representative is heard without any
			// membership exchange.
			m.outer.arr[from] = float64(m.local(ctx))
		}

	case Discipline:
		// Followers apply the relayed outer adjustment; an acting
		// representative runs its own outer instance and ignores relays
		// (e.g. from a deposed-but-alive predecessor).
		if m.outer == nil && msg.From == m.Representative() && msg.From != m.id {
			m.bumpFromOuter(ctx, pl.Adj)
			m.lastDisc = m.local(ctx)
			ctx.Annotate(metrics.TagDiscipline, pl.Adj)
		}
	}
}

// innerBroadcast is §4.2's BCAST step restricted to the own cluster: one
// group fan-out of c copies instead of n broadcast copies.
func (m *Member) innerBroadcast(ctx *sim.Context) {
	ctx.Annotate(metrics.TagRoundBegin, float64(m.inner.rnd))
	ctx.BroadcastRange(m.lo, m.hi, TMsg{Tier: TierInner, Mark: m.inner.t})
	m.armInner(ctx, m.inner.t+clock.Local(m.inner.window))
	m.inner.flag = phaseUpdate
}

func (m *Member) innerTimer(ctx *sim.Context) {
	switch m.inner.flag {
	case phaseBroadcast:
		m.innerBroadcast(ctx)
	case phaseUpdate:
		adj := m.inner.adjustment()
		m.bumpFromInner(ctx, adj)
		m.lastAdj = adj
		ctx.Annotate(metrics.TagAdjust, adj)
		ctx.Annotate(metrics.TagRoundComplete, float64(m.inner.rnd))
		m.inner.advance()
		m.armInner(ctx, m.inner.t)
		m.checkElection(ctx)
	}
}

// checkElection runs once per inner round, after the update: a follower that
// has heard no discipline for more than ElectAfter of local time rotates to
// the next candidate, possibly electing itself.
func (m *Member) checkElection(ctx *sim.Context) {
	if m.outer != nil {
		// Acting representatives do not depose themselves; concurrent
		// representatives after a spurious election are harmless (followers
		// obey exactly one, and outer slots are last-write-wins per cluster).
		return
	}
	if float64(m.local(ctx)-m.lastDisc) <= m.cfg.ElectAfter {
		return
	}
	m.repRank = (m.repRank + 1) % m.cands
	m.lastDisc = m.local(ctx) // fresh grace period for the new tenure
	ctx.Annotate(metrics.TagElect, float64(m.Representative()))
	if m.id == m.Representative() {
		m.becomeRep(ctx)
	}
}

// becomeRep starts the outer instance in place, fast-forwarded to the next
// outer mark at or after the current local time (a late-elected
// representative joins the running schedule; its first update may see a cold
// ARR and skip via the adjustment guard, converging one round later).
func (m *Member) becomeRep(ctx *sim.Context) {
	m.outer = newTier(m.cfg.OuterParams())
	if now := m.local(ctx); now > m.outer.t {
		skip := math.Ceil(float64(now-m.outer.t) / m.outer.p)
		m.outer.base += clock.Local(skip * m.outer.p)
		m.outer.t = m.outer.base
		m.outer.rnd = int(skip)
	}
	m.armOuter(ctx, m.outer.t)
}

func (m *Member) outerTimer(ctx *sim.Context) {
	if m.outer == nil {
		return
	}
	switch m.outer.flag {
	case phaseBroadcast:
		m.outerBroadcast(ctx)
	case phaseUpdate:
		adj := m.outer.adjustment()
		m.bumpFromOuter(ctx, adj)
		ctx.Annotate(metrics.TagOuterAdjust, adj)
		m.outer.advance()
		m.armOuter(ctx, m.outer.t)
		// The relay goes to every follower: the cluster minus the sender,
		// as the two ranges around it (one boxed payload for both).
		var pl any = Discipline{Adj: adj, Round: int32(m.outer.rnd - 1)}
		ctx.BroadcastRange(m.lo, m.id, pl)
		ctx.BroadcastRange(m.id+1, m.hi, pl)
		m.lastDisc = m.local(ctx)
	}
}

// outerBroadcast sends the outer round mark to every foreign cluster's
// candidate set, one group fan-out per cluster (so a representative elected
// later still has warm peers), and records the own-cluster slot directly at
// the nominal substrate offset — looping a copy through the intra-cluster
// channel would stamp it with an inner-band delay and bias the midpoint low.
func (m *Member) outerBroadcast(ctx *sim.Context) {
	mark := m.outer.t
	var pl any = TMsg{Tier: TierOuter, Mark: mark}
	for j := 0; j < m.cfg.Clusters(); j++ {
		if j == m.cluster {
			m.outer.arr[j] = float64(m.local(ctx)) + m.outer.delta
			continue
		}
		lo, hi := m.cfg.ClusterBounds(j)
		cands := m.cfg.Candidates
		if size := int(hi - lo); cands > size {
			cands = size
		}
		ctx.BroadcastRange(lo, lo+sim.ProcID(cands), pl)
	}
	m.armOuter(ctx, mark+clock.Local(m.outer.window))
	m.outer.flag = phaseUpdate
}
