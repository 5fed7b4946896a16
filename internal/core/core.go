// Package core implements the paper's contribution: the fault-tolerant clock
// synchronization maintenance algorithm of §4, together with the extensions
// of §7 (k exchanges per round, mean instead of midpoint), §9.1
// (reintegration of a repaired process), §9.2 (establishing synchronization),
// and §9.3 (staggered broadcasts for collision-prone datagram networks).
//
// The algorithm runs in rounds of local-time length P. When process p's i-th
// logical clock reaches Tⁱ = T⁰ + iP, p broadcasts a Tⁱ message and records
// in ARR the local arrival times of everyone's Tⁱ messages. After waiting
// (1+ρ)(β+δ+ε) on its logical clock — just long enough to hear every
// nonfaulty process — it computes
//
//	AV  = mid(reduce_f(ARR))      (the fault-tolerant average)
//	ADJ = Tⁱ + δ − AV
//	CORR += ADJ
//
// switching to its (i+1)-st logical clock, and sets a timer for Tⁱ⁺¹.
package core

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/multiset"
	"repro/internal/sim"
)

// Annotation tags (shared vocabulary in package metrics): TagRoundBegin
// fires when the logical clock reaches Tⁱ, TagAdjust at each clock update,
// TagRoundComplete after the update ending a round, TagRejoined when a
// reintegrating process has set its clock, TagStartupRound when a start-up
// process begins a round.

// TMsg is the round message of §4.2: the broadcast of the value Tⁱ at the
// moment the sender's logical clock reaches it.
type TMsg struct {
	Mark clock.Local // the round mark Tⁱ the sender is broadcasting
}

// Averager selects the ordinary averaging function applied after reduce_f.
type Averager uint8

// Averaging choices. The paper's algorithm uses the midpoint; §7 notes that
// with f fixed and n growing, the mean converges at rate f/(n−2f) and
// approaches an error of about 2ε.
const (
	Midpoint Averager = iota + 1
	Mean
)

// String implements fmt.Stringer.
func (a Averager) String() string {
	switch a {
	case Midpoint:
		return "midpoint"
	case Mean:
		return "mean"
	default:
		return fmt.Sprintf("Averager(%d)", uint8(a))
	}
}

func (a Averager) apply(m multiset.Multiset, f int) (float64, error) {
	switch a {
	case Mean:
		return multiset.FaultTolerantMean(m, f)
	default:
		return multiset.FaultTolerantMidpoint(m, f)
	}
}

// Config parameterizes the maintenance algorithm. The zero value is not
// usable; fill Params (validated via analysis.Params.Validate) and leave the
// variant knobs zero for the plain §4.2 algorithm.
type Config struct {
	analysis.Params

	// Averager defaults to Midpoint.
	Averager Averager
	// K is the number of clock-value exchanges per round (§7); 0 or 1 is
	// the plain algorithm.
	K int
	// SubPeriod spaces the K exchanges within a round in local time. Zero
	// derives a feasible spacing from the parameters. Ignored for K ≤ 1.
	SubPeriod float64
	// Stagger is the §9.3 spacing σ: process p broadcasts at Tⁱ + p·σ so
	// that datagrams do not collide. Zero disables staggering.
	Stagger float64
}

func (c Config) withDefaults() Config {
	if c.Averager == 0 {
		c.Averager = Midpoint
	}
	if c.K < 1 {
		c.K = 1
	}
	if c.K > 1 && c.SubPeriod == 0 {
		c.SubPeriod = c.PMin() * 1.05
	}
	return c
}

// Validate checks the parameters and the variant knobs.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if err := cc.Params.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	// The comparisons are negated so that a NaN knob fails them.
	if cc.K > 1 && !(float64(cc.K)*cc.SubPeriod <= cc.P) {
		return fmt.Errorf("core: K=%d exchanges of sub-period %v do not fit in round length %v", cc.K, cc.SubPeriod, cc.P)
	}
	if !(cc.Stagger >= 0) {
		return fmt.Errorf("core: stagger %v must be nonnegative", cc.Stagger)
	}
	if cc.Stagger > 0 && !(float64(cc.N)*cc.Stagger <= cc.P/4) {
		return fmt.Errorf("core: stagger %v too large for n=%d and P=%v", cc.Stagger, cc.N, cc.P)
	}
	return nil
}

// phase is the FLAG variable of §4.2, alternating between broadcasting the
// clock value and updating the clock.
type phase uint8

const (
	phaseBroadcast phase = iota + 1 // FLAG = BCAST
	phaseUpdate                     // FLAG = UPDATE
)

// Proc is the nonfaulty process automaton of §4.2. One Proc per process;
// construct with NewProc.
type Proc struct {
	cfg     Config
	corr    clock.Local
	arr     []float64 // ARR[1..n]: local arrival times of most recent messages
	scratch []float64 // reusable quickselect buffer for the midpoint update
	flag    phase
	t       clock.Local // T: the current (sub-)exchange mark
	base    clock.Local // Tⁱ: beginning of the current round
	exch    int         // sub-exchange index within the round, 0-based
	rnd     int         // round index i

	// adjustments accumulates |ADJ| values for tests; the authoritative
	// record for experiments is the TagAdjust annotation stream.
	lastAdj float64
}

var (
	_ sim.Process    = (*Proc)(nil)
	_ sim.CorrHolder = (*Proc)(nil)
)

// NewProc builds a process with the given initial correction (the paper's
// "initially whatever value is needed to attain required degree of
// synchronization": the experiment setup chooses initial corrections so that
// assumption A4 holds, or violates it on purpose).
func NewProc(cfg Config, initialCorr clock.Local) *Proc {
	cfg = cfg.withDefaults()
	arr := make([]float64, cfg.N)
	for i := range arr {
		arr[i] = math.Inf(-1) // never-heard sentinel; reduce_f discards them
	}
	return &Proc{
		cfg:     cfg,
		corr:    initialCorr,
		arr:     arr,
		scratch: make([]float64, cfg.N),
		flag:    phaseBroadcast,
		t:       clock.Local(cfg.T0),
		base:    clock.Local(cfg.T0),
	}
}

// Corr implements sim.CorrHolder: the local time is Ph_p + CORR.
func (p *Proc) Corr() clock.Local { return p.corr }

// Round returns the current round index.
func (p *Proc) Round() int { return p.rnd }

// LastAdj returns the adjustment applied at the most recent update.
func (p *Proc) LastAdj() float64 { return p.lastAdj }

// local returns local-time() = physical clock + CORR.
func (p *Proc) local(ctx *sim.Context) clock.Local { return ctx.PhysNow() + p.corr }

// setTimer arranges a TIMER when the current logical clock reaches T (§4.2's
// set-timer: physical clock reaches T − CORR).
func (p *Proc) setTimer(ctx *sim.Context, T clock.Local) {
	ctx.SetTimer(T-p.corr, nil)
}

// Receive implements the three code clusters of §4.2.
func (p *Proc) Receive(ctx *sim.Context, m sim.Message) {
	switch {
	case m.Kind == sim.KindOrdinary:
		// receive(m) from q: ARR[q] := local-time().
		// With §9.3 staggering, q broadcast at Tⁱ + q·σ, so subtract q·σ
		// to normalize the arrival to the unstaggered schedule.
		p.arr[m.From] = float64(p.local(ctx)) - p.cfg.Stagger*float64(m.From)

	case (m.Kind == sim.KindStart || isOwnTimer(m)) && p.flag == phaseBroadcast:
		if p.exch == 0 {
			ctx.Annotate(metrics.TagRoundBegin, float64(p.rnd))
		}
		ctx.Broadcast(TMsg{Mark: p.t})
		p.setTimer(ctx, p.updateMark())
		p.flag = phaseUpdate

	case isOwnTimer(m) && p.flag == phaseUpdate:
		p.update(ctx)
	}
}

// isOwnTimer reports whether m is a TIMER this automaton set: Proc's timers
// carry a nil payload, so timers left pending by a predecessor automaton
// (e.g. the §9.2 start-up phase before a switch) are ignored.
func isOwnTimer(m sim.Message) bool {
	return m.Kind == sim.KindTimer && m.Payload == nil
}

// updateMark returns Uⁱ = T + (1+ρ)(β+δ+ε), extended to cover the staggered
// broadcast tail n·σ when σ > 0.
func (p *Proc) updateMark() clock.Local {
	w := p.cfg.Window() + float64(p.cfg.N)*p.cfg.Stagger
	return p.t + clock.Local(w)
}

// broadcastMark returns the logical time at which this process broadcasts
// the current exchange: T + p·σ (§9.3), which is plain T when σ = 0.
func (p *Proc) broadcastMark(ctx *sim.Context) clock.Local {
	return p.t + clock.Local(p.cfg.Stagger*float64(ctx.ID()))
}

func (p *Proc) update(ctx *sim.Context) {
	var av float64
	var err error
	if p.cfg.Averager == Midpoint {
		// Hot path: mid(reduce_f) needs only the (f+1)-th smallest and
		// largest arrivals, so quickselect on a reused scratch copy of ARR
		// replaces the per-round sort + allocation of multiset.New. The
		// result is bit-identical to the sorting path.
		copy(p.scratch, p.arr)
		av, err = multiset.MidpointSelect(p.scratch, p.cfg.F)
	} else {
		av, err = p.cfg.Averager.apply(multiset.New(p.arr...), p.cfg.F)
	}
	if err != nil {
		// Unreachable for validated configs: |ARR| = n ≥ 3f+1 > 2f.
		panic(fmt.Sprintf("core: averaging: %v", err))
	}
	adj := float64(p.t) + p.cfg.Delta - av
	if math.IsInf(adj, 0) || math.IsNaN(adj) {
		// Out-of-spec safeguard: with more than f senders missing, the
		// never-heard sentinels survive reduce_f and the average is
		// meaningless. The paper assumes ≤ f faults (A2), so this cannot
		// happen in spec; outside spec we skip the adjustment rather than
		// poison the clock, letting experiments measure the degradation.
		adj = 0
	}
	p.corr += clock.Local(adj)
	p.lastAdj = adj
	ctx.Annotate(metrics.TagAdjust, adj)

	if p.exch < p.cfg.K-1 {
		p.exch++
		p.t = p.base + clock.Local(float64(p.exch)*p.cfg.SubPeriod)
	} else {
		ctx.Annotate(metrics.TagRoundComplete, float64(p.rnd))
		p.exch = 0
		p.rnd++
		p.base += clock.Local(p.cfg.P)
		p.t = p.base
	}
	p.setTimer(ctx, p.broadcastMark(ctx))
	p.flag = phaseBroadcast
}

// StartTimes returns the real times at which each process's START message
// should be delivered so that assumption A4 holds: process p wakes when its
// initial logical clock reaches T⁰. initialCorrs are the initial CORR values
// and clocks the physical clocks.
func StartTimes(cfg Config, clocks []clock.Clock, initialCorrs []clock.Local) []clock.Real {
	starts := make([]clock.Real, len(clocks))
	for i, c := range clocks {
		starts[i] = c.Inv(clock.Local(cfg.T0) - initialCorrs[i])
	}
	return starts
}

// InitialCorrsWithinBeta returns initial corrections that realize assumption
// A4 with the inverse initial logical clocks spread evenly across [0, width]
// real time. Width must be ≤ β for A4 to hold; experiments pass larger
// widths to study recovery from out-of-spec initial states.
func InitialCorrsWithinBeta(cfg Config, clocks []clock.Clock, width float64) []clock.Local {
	corrs := make([]clock.Local, len(clocks))
	n := len(clocks)
	for i, c := range clocks {
		// Want c_p⁰(T⁰) = spread_i, i.e. Ph_p(spread_i) + CORR = T⁰.
		var spread clock.Real
		if n > 1 {
			spread = clock.Real(width) * clock.Real(i) / clock.Real(n-1)
		}
		corrs[i] = clock.Local(cfg.T0) - c.At(spread)
	}
	return corrs
}
