package clocksync

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/sim"
)

// FaultKind selects a Byzantine behavior for a process (see internal/faults
// for the semantics).
type FaultKind uint8

// Fault behaviors available through the public API.
const (
	// FaultSilent never sends anything (a crashed process).
	FaultSilent FaultKind = iota + 1
	// FaultTwoFaced sends its round message early to half the processes
	// and late to the rest — the canonical Byzantine attack on averaging.
	FaultTwoFaced
	// FaultNoise floods the system with bogus messages at random times.
	FaultNoise
	// FaultStaleReplay rebroadcasts an old round mark, always late.
	FaultStaleReplay
	// FaultCrashMidRun behaves correctly for five rounds and then stops.
	FaultCrashMidRun
)

// Averaging re-exports the §4/§7 averaging choices.
type Averaging = core.Averager

// Averaging function choices for WithAveraging.
const (
	// Midpoint is the paper's choice: error halves each round.
	Midpoint = core.Midpoint
	// Mean is the §7 variant: error contracts by ≈ f/(n−2f) per round.
	Mean = core.Mean
)

// DelayDistribution selects how message delays are drawn from [δ−ε, δ+ε].
type DelayDistribution uint8

// Delay distributions for WithDelayDistribution.
const (
	// DelayUniform draws every delay uniformly (the benign default).
	DelayUniform DelayDistribution = iota + 1
	// DelayConstant delivers every message in exactly δ.
	DelayConstant
	// DelayAdversarial pins each delay at a band edge chosen per recipient
	// — the worst case for the arrival-time estimator.
	DelayAdversarial
)

// Topology selects the synchronization topology for a Cluster.
type Topology uint8

// Topologies for WithTopology.
const (
	// TopologyFlat is the paper's all-to-all mesh (the default): every
	// process exchanges with every other, Θ(n²) messages per round.
	TopologyFlat Topology = iota
	// TopologyTwoTier composes the algorithm twice (see README
	// "Hierarchical synchronization"): clusters run it internally on a fast
	// substrate, elected representatives run it again across clusters, and
	// followers discipline to their representative — ≈ n·c + (n/c)² messages
	// per round instead of n².
	TopologyTwoTier
)

type options struct {
	rho           float64
	delta, eps    float64
	deltaSet      bool
	beta          float64
	betaSet       bool
	topology      Topology
	clusterSize   int
	roundLength   float64
	t0            float64
	averager      core.Averager
	k             int
	stagger       float64
	seed          int64
	shards        int
	initialSpread float64
	skewBucket    clock.Real
	delayDist     DelayDistribution
	randomDrift   bool
	deriveBeta    bool
	traceLimit    int
	faults        map[int]FaultKind
	adversary     string
	rejoinID      int
	rejoinWake    float64
	rejoinCorr    float64

	errs []error // option values outside their domain (see resolveOptions)
}

// Option-value errors. An entry point given an option value outside its
// domain returns one of these, wrapped with the option and the value; test
// with errors.Is.
var (
	// ErrShardCount: WithShards needs at least one shard.
	ErrShardCount = errors.New("shard count must be at least 1")
	// ErrSkewBucket: WithSkewSeries needs a positive, finite bucket width.
	ErrSkewBucket = errors.New("skew-series bucket must be positive and finite")
)

// resolveOptions applies opts over the defaults and reports every option
// value outside its domain.
func resolveOptions(opts []Option) (options, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	return o, errors.Join(o.errs...)
}

func defaultOptions() options {
	return options{
		rho:         1e-5,
		delta:       10e-3,
		eps:         1e-3,
		beta:        5.5e-3,
		roundLength: 1.0,
		seed:        1,
		delayDist:   DelayUniform,
		rejoinID:    -1,
	}
}

func (o options) delayModel(cfg core.Config) sim.DelayModel {
	switch o.delayDist {
	case DelayConstant:
		return sim.ConstantDelay{Delta: cfg.Delta}
	case DelayAdversarial:
		return sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps}
	default:
		return sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps}
	}
}

func (o options) driftSchedule(cfg core.Config) clock.DriftSchedule {
	if o.randomDrift {
		return clock.RandomWalkDrift{RhoBound: cfg.Rho, SegmentDur: 5, Horizon: 3600, Seed: o.seed}
	}
	return clock.ConstantDrift{RhoBound: cfg.Rho}
}

// Option customizes a Cluster.
type Option func(*options)

// WithRho sets the clock drift bound ρ (A1).
func WithRho(rho float64) Option { return func(o *options) { o.rho = rho } }

// WithDelay sets the message delay parameters δ and ε (A3).
func WithDelay(delta, eps float64) Option {
	return func(o *options) { o.delta, o.eps, o.deltaSet = delta, eps, true }
}

// WithBeta sets the initial-closeness parameter β (A4).
func WithBeta(beta float64) Option { return func(o *options) { o.beta, o.betaSet = beta, true } }

// WithRoundLength sets the round length P (in local-time seconds). It must
// satisfy the §5.2 constraints for the other parameters.
func WithRoundLength(p float64) Option { return func(o *options) { o.roundLength = p } }

// WithT0 sets the first round mark T⁰.
func WithT0(t0 float64) Option { return func(o *options) { o.t0 = t0 } }

// WithAveraging selects the averaging function (Midpoint or Mean).
func WithAveraging(a Averaging) Option { return func(o *options) { o.averager = a } }

// WithKExchanges sets the §7 variant exchanging clock values k times per
// round.
func WithKExchanges(k int) Option { return func(o *options) { o.k = k } }

// WithStagger enables §9.3 staggered broadcasts with spacing σ.
func WithStagger(sigma float64) Option { return func(o *options) { o.stagger = sigma } }

// WithSeed makes the run reproducible under a different randomness stream.
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithShards runs the simulation on the sharded time-window engine,
// partitioning the processes across k shards that drain conservative
// lookahead windows in parallel (see README "Sharded execution for large
// n"). The execution — every delivery, every measured quantity — is
// byte-identical for every k, so the knob trades nothing but hardware.
// Features the sharded engine rejects (an adversary strategy, per-delivery
// tracing) fail Run with a clear error; k = 1 means the sequential engine,
// and k < 1 fails New with ErrShardCount.
func WithShards(k int) Option {
	return func(o *options) {
		if k < 1 {
			o.errs = append(o.errs, fmt.Errorf("clocksync: WithShards(%d): %w", k, ErrShardCount))
			return
		}
		o.shards = k
	}
}

// WithInitialSpread spreads the initial logical clocks over the given real
// width (default 0.9β; pass more to watch convergence from out-of-spec
// initial states).
func WithInitialSpread(width float64) Option {
	return func(o *options) { o.initialSpread = width }
}

// WithSkewSeries collects a per-bucket max-skew series in the report. The
// bucket width is in real seconds; a non-positive or non-finite width fails
// New with ErrSkewBucket.
func WithSkewSeries(bucket float64) Option {
	return func(o *options) {
		if !(bucket > 0) || math.IsInf(bucket, 1) {
			o.errs = append(o.errs, fmt.Errorf("clocksync: WithSkewSeries(%v): %w", bucket, ErrSkewBucket))
			return
		}
		o.skewBucket = clock.Real(bucket)
	}
}

// WithDelayDistribution selects the delay distribution.
func WithDelayDistribution(d DelayDistribution) Option {
	return func(o *options) { o.delayDist = d }
}

// WithRandomDrift gives each clock a randomly wandering (still ρ-bounded)
// rate instead of a constant one.
func WithRandomDrift() Option { return func(o *options) { o.randomDrift = true } }

// WithFault makes process id faulty with the given behavior. At most f
// processes may be faulty.
func WithFault(id int, kind FaultKind) Option {
	return func(o *options) {
		if o.faults == nil {
			o.faults = make(map[int]FaultKind)
		}
		o.faults[id] = kind
	}
}

// WithAdversary installs a registered adversary strategy by name (see
// internal/faults: faults.Strategies lists them, cmd/wlsim -adversary-list
// prints them). Schedule-driven strategies make the top f processes faulty
// with the strategy's automata; adaptive strategies additionally (or, for
// pure retimers such as "skewmax", exclusively) install the strategy's
// network adversary on the engine's delivery pipeline, where its retiming
// is clamped to [δ−ε, δ+ε]. Mutually exclusive with WithFault and
// WithRejoiner (the strategy mix owns the fault slots).
func WithAdversary(name string) Option { return func(o *options) { o.adversary = name } }

// WithRejoiner replaces process id with a §9.1 reintegrating process that
// wakes at real time wakeAt with its clock off by initialCorr seconds. It
// counts toward the f fault budget until it rejoins.
func WithRejoiner(id int, wakeAt, initialCorr float64) Option {
	return func(o *options) {
		o.rejoinID = id
		o.rejoinWake = wakeAt
		o.rejoinCorr = initialCorr
	}
}

// WithTrace records the execution's action log (up to limit events; ≤ 0
// means a default cap) and exposes it as Report.Trace.
func WithTrace(limit int) Option {
	return func(o *options) {
		if limit <= 0 {
			limit = 10_000
		}
		o.traceLimit = limit
	}
}

// WithDerivedBeta derives the smallest feasible β for the configured ρ, δ,
// ε and round length (plus a safety margin) instead of using the default or
// a WithBeta value — the §5.2 feasibility computation done for you.
func WithDerivedBeta() Option { return func(o *options) { o.deriveBeta = true } }

// WithTopology selects the synchronization topology. TopologyTwoTier runs
// the two-tier hierarchy with clusters of ≈ √n processes (the
// traffic-optimal size; override with WithClusters) on the hierarchy's
// LAN-under-WAN substrate defaults — in two-tier mode the f argument of New
// bounds the Byzantine *representatives* f_out (0 derives the largest
// budget the cluster count supports) and the per-cluster budget f_in is
// derived from the cluster size. Options that configure the flat mesh's
// single substrate or its fault slots (WithDelay, WithBeta, WithFault,
// WithAdversary, …) are rejected with a named error; WithShards composes
// freely, draining the clusters' inner rounds in parallel.
func WithTopology(t Topology) Option { return func(o *options) { o.topology = t } }

// WithClusters runs the two-tier hierarchy with clusters of c processes
// (implies WithTopology(TopologyTwoTier); c ≤ 0 picks c ≈ √n).
func WithClusters(c int) Option {
	return func(o *options) { o.topology, o.clusterSize = TopologyTwoTier, c }
}
