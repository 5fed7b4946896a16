package main

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// flatSystem is one flat-mesh execution assembled from the public
// constructors in the order exp.Run uses them, so a rebuilt run replays the
// execution exp.Run (and the clocksync facade above it) produces. The
// traced run and the event-count replay build through it.
type flatSystem struct {
	cfg     core.Config
	scfg    sim.Config
	procs   []sim.Process // unwrapped automata, parallel to scfg.Procs
	faulty  []bool
	tmin0   clock.Real
	tmax0   clock.Real
	warmup  clock.Real
	horizon clock.Real
}

// assembleFlat builds the system exp.Run would for a workload with these
// fields: constant ρ-band drift, uniform delays unless delay is set, the
// 0.9β initial spread, the maintenance automaton for every process not in
// mix, and exp.Run's queue hint and warm-up convention.
func assembleFlat(cfg core.Config, rounds int, seed int64, delay sim.DelayModel, mix map[sim.ProcID]func() sim.Process, adv sim.Adversary) *flatSystem {
	n := cfg.N
	if delay == nil {
		delay = sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps}
	}
	drift := clock.ConstantDrift{RhoBound: cfg.Rho}
	clocks := make([]clock.Clock, n)
	for i := range clocks {
		clocks[i] = drift.Build(i, n)
	}
	corrs := core.InitialCorrsWithinBeta(cfg, clocks, 0.9*cfg.Beta)
	starts := core.StartTimes(cfg, clocks, corrs)
	procs := make([]sim.Process, n)
	faulty := make([]bool, n)
	for i := range procs {
		if mk, ok := mix[sim.ProcID(i)]; ok {
			procs[i] = mk()
			faulty[i] = true
			continue
		}
		procs[i] = core.NewProc(cfg, corrs[i])
	}
	first := true
	var tmin0, tmax0 clock.Real
	for i, s := range starts {
		if faulty[i] {
			continue
		}
		if first || s < tmin0 {
			tmin0 = s
		}
		if first || s > tmax0 {
			tmax0 = s
		}
		first = false
	}
	k := cfg.K
	if k < 1 {
		k = 1
	}
	hint := n*n + 2*n + 8 + (k-1)*n*n/4
	if sim.BroadcastAuto.Resolve(n) == sim.BroadcastLazy {
		hint = sim.DefaultEventHint(sim.BroadcastLazy, n) + (k-1)*n
	}
	return &flatSystem{
		cfg: cfg,
		scfg: sim.Config{
			Procs:     append([]sim.Process(nil), procs...),
			Clocks:    clocks,
			StartAt:   starts,
			Delay:     delay,
			Faulty:    faulty,
			Seed:      seed,
			Adversary: adv,
			EventHint: hint,
		},
		procs:   procs,
		faulty:  faulty,
		tmin0:   tmin0,
		tmax0:   tmax0,
		warmup:  tmax0 + clock.Real(float64(rounds/2)*cfg.P),
		horizon: tmax0 + clock.Real(float64(rounds)*cfg.P*(1+2*cfg.Rho)+2*cfg.Window()+cfg.Delta+1),
	}
}

// flatRecorders are the standard recorders exp.Run attaches, plus the
// theorem suite it adds for a workload that checks invariants.
type flatRecorders struct {
	skew     *metrics.SkewRecorder
	rounds   *metrics.RoundRecorder
	validity *metrics.ValidityRecorder
	suite    *invariant.Suite
}

func (s *flatSystem) recorders() flatRecorders {
	a1, a2, a3 := s.cfg.Validity()
	r := flatRecorders{
		skew:   &metrics.SkewRecorder{Warmup: s.warmup},
		rounds: metrics.NewDefaultRoundRecorder(),
		validity: &metrics.ValidityRecorder{
			Alpha1: a1, Alpha2: a2, Alpha3: a3,
			T0:    s.cfg.T0,
			TMin0: s.tmin0, TMax0: s.tmax0,
			From: s.tmax0,
		},
		suite: invariant.NewSuite(s.cfg.Params, s.tmin0, s.tmax0, s.warmup),
	}
	return r
}

// observers returns the recorders in exp.Run's registration order, each
// with the layer its time is attributed to. The order matters to the
// attribution: the first sampler at a sample point pays the spread scan the
// others then read from the engine's cache.
func (r flatRecorders) observers() ([]sim.Observer, []layer) {
	obs := []sim.Observer{r.skew, r.rounds, r.validity,
		r.suite.Agreement, r.suite.Validity, r.suite.Monotonic, r.suite.Adjustment}
	ls := []layer{layerMetricsSkew, layerMetricsRound, layerMetricsValidity,
		layerInvAgreement, layerInvValidity, layerInvMonotonicity, layerInvAdjBound}
	return obs, ls
}

// largeNConfig is the LargeN benchmark shape: n maintenance automata with
// f = (n−1)/3 capacity and no actual faults, on the analysis defaults.
func largeNConfig(n int) (core.Config, error) {
	cfg := core.Config{Params: analysis.Default(n, (n-1)/3)}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("large-n config: %w", err)
	}
	return cfg, nil
}

// largeNSystem assembles the LargeN execution for sim.New with the auto
// scheduler, the auto broadcast mode and no observers.
func largeNSystem(cfg core.Config, rounds int, seed int64) *flatSystem {
	n := cfg.N
	drift := clock.ConstantDrift{RhoBound: cfg.Rho}
	clocks := make([]clock.Clock, n)
	for i := range clocks {
		clocks[i] = drift.Build(i, n)
	}
	corrs := core.InitialCorrsWithinBeta(cfg, clocks, 0.9*cfg.Beta)
	starts := core.StartTimes(cfg, clocks, corrs)
	procs := make([]sim.Process, n)
	for i := range procs {
		procs[i] = core.NewProc(cfg, corrs[i])
	}
	tmax0 := starts[0]
	for _, s := range starts[1:] {
		if s > tmax0 {
			tmax0 = s
		}
	}
	return &flatSystem{
		cfg: cfg,
		scfg: sim.Config{
			Procs:   append([]sim.Process(nil), procs...),
			Clocks:  clocks,
			StartAt: starts,
			Delay:   sim.UniformDelay{Delta: cfg.Delta, Eps: cfg.Eps},
			Seed:    seed,
			// A 10-round n=1009 run needs ≈12.2M events, past the engine's
			// default step limit.
			MaxSteps: 1 << 40,
		},
		procs:   procs,
		faulty:  make([]bool, n),
		tmax0:   tmax0,
		warmup:  tmax0 + clock.Real(float64(rounds/2)*cfg.P),
		horizon: tmax0 + clock.Real(float64(rounds)*cfg.P*(1+2*cfg.Rho)+2*cfg.Window()+cfg.Delta+1),
	}
}

// twoTierConfig is the hierarchy clocksync.New(n, 0, WithClusters(0))
// configures: clusters of c ≈ √n on hier.Default with the facade's default
// drift bound, round length and start time, and the largest fault budgets
// the topology supports.
func twoTierConfig(n int) (hier.Config, error) {
	c := int(math.Round(math.Sqrt(float64(n))))
	if c < 1 {
		c = 1
	}
	h := hier.Default(n, c)
	h.Rho = 1e-5
	h.P = 1.0
	h.ElectAfter = 2.5 * h.P
	h.T0 = 0
	if err := h.Validate(); err != nil {
		return h, fmt.Errorf("two-tier config: %w", err)
	}
	return h, nil
}

// spreadRecorder is the facade's two-tier skew observer: the all-time and
// post-warm-up maxima of the nonfaulty local-time spread, sampled at the
// sharded engine's window cuts.
type spreadRecorder struct {
	warm        clock.Real
	max, steady float64
}

func (h *spreadRecorder) Sample(e *sim.Engine, _ bool) {
	lo, hi, count := e.LocalTimeSpread(e.Now())
	h.record(e.Now(), lo, hi, count)
}

func (h *spreadRecorder) record(t clock.Real, lo, hi clock.Local, count int) {
	if count < 2 {
		return
	}
	d := float64(hi - lo)
	if d > h.max {
		h.max = d
	}
	if t >= h.warm && d > h.steady {
		h.steady = d
	}
}

// minMemberRound is the lowest inner round any member reached.
func minMemberRound(procs []sim.Process) int {
	min := -1
	for _, p := range procs {
		if m, ok := p.(*hier.Member); ok {
			if r := m.Round(); min < 0 || r < min {
				min = r
			}
		}
	}
	return min
}

// minProcRound is the lowest round any maintenance automaton reached.
func minProcRound(procs []sim.Process) int {
	min := -1
	for _, p := range procs {
		if c, ok := p.(*core.Proc); ok {
			if r := c.Round(); min < 0 || r < min {
				min = r
			}
		}
	}
	return min
}

// shardLanes returns one lane per shard and the lane of every process:
// sim.NewSharded places processes on shards in contiguous blocks of
// ⌈n/k⌉.
func shardLanes(n, k int, newLane func() *lane) ([]*lane, []*lane) {
	shards := make([]*lane, k)
	for i := range shards {
		shards[i] = newLane()
	}
	per := (n + k - 1) / k
	byProc := make([]*lane, n)
	for i := range byProc {
		byProc[i] = shards[i/per]
	}
	return shards, byProc
}
