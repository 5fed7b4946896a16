package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	clocksync "repro"
	"repro/internal/analysis"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/exp/runner"
	"repro/internal/faults"
	"repro/internal/hier"
	"repro/internal/invariant"
	"repro/internal/sim"
)

// sizes fixes how large each workload's systems are. The benchmark runs
// fullSizes; the tests run the same code at smokeSizes.
type sizes struct {
	engineN          int
	twoTierN, shards int
	sweepGrid        [][2]int // (n, f) points
	sweepSeeds       int      // trials per (strategy, n, f, delay) cell
	rounds           int
}

var fullSizes = sizes{
	engineN:  337,
	twoTierN: 4033, shards: 2,
	sweepGrid:  [][2]int{{4, 1}, {7, 2}, {10, 3}, {13, 4}, {31, 10}},
	sweepSeeds: 4,
	rounds:     10,
}

// outcome is what one op produced: the fields of its digest plus, for the
// sweep, the per-trial wall times.
type outcome struct {
	Events    int64
	Msgs      int64
	MinRound  int
	Skew      float64 // steady skew (flat-engine: spread at the horizon); sweep: worst skew/γ
	Bound     float64 // γ, γ_composed, or 1 for the sweep's ratio
	Verdicts  string  // invariant verdicts, "name=ok" or "name=VIOLATED", comma-separated
	Trials    int
	TrialHash uint64 // sweep: hash of every trial's digest fields, in trial order
	Misses    []string

	trialWalls []float64
}

// digest is the pinned fingerprint of an op's output.
func (o outcome) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%x|%s|%d|%x", o.Events, o.Msgs, o.MinRound,
		math.Float64bits(o.Skew), o.Verdicts, o.Trials, o.TrialHash)
	return fmt.Sprintf("%016x", h.Sum64())
}

// misses lists the theorem bounds the op broke: a round not reached, skew
// above its bound, an invariant violated, or a per-trial miss.
func (o outcome) misses(rounds int) []string {
	out := append([]string(nil), o.Misses...)
	if o.MinRound < rounds {
		out = append(out, fmt.Sprintf("reached round %d of %d", o.MinRound, rounds))
	}
	if !(o.Skew <= o.Bound) {
		out = append(out, fmt.Sprintf("skew %g above bound %g", o.Skew, o.Bound))
	}
	if strings.Contains(o.Verdicts, "VIOLATED") {
		out = append(out, "invariant violated: "+o.Verdicts)
	}
	return out
}

func verdicts(names []string, oks []bool) string {
	parts := make([]string, len(names))
	for i, n := range names {
		v := "ok"
		if !oks[i] {
			v = "VIOLATED"
		}
		parts[i] = n + "=" + v
	}
	return strings.Join(parts, ",")
}

// instance is one workload at one seed and size.
type instance interface {
	// assemble builds, without running, every system one op builds.
	assemble() error
	// op runs one untraced op through the public entry points.
	op() (outcome, error)
	// traced rebuilds the op with timing shims and runs it.
	traced(t *tracer) (outcome, error)
	// complete fills in the digest fields an untraced op cannot observe
	// (the event count behind the facade), by an observer-free replay.
	complete(o *outcome) error
}

type workload struct {
	name string
	why  string
	make func(sz sizes, seed int64) instance
}

var workloads = []workload{
	{"flat-engine", "the observer-free LargeN engine at n=337: scheduler, lazy fan-out, delivery pipeline and protocol are the whole op", newFlatEngine},
	{"two-tier-sharded", "the only workload exercising hier fan-out/election and the shard barrier/exchange, observers only at window cuts", newTwoTier},
	{"conformance-sweep", "E17-shaped trials: per-trial assembly, the invariant suite, the adversary stage and the small-n heap scheduler", newSweep},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sameLane maps every process to one lane.
func sameLane(ln *lane, n int) []*lane {
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = ln
	}
	return lanes
}

// wrapFlatProcs times every process of s on its lane: maintenance automata
// under the core layers, faulty automata under faults.recv.
func wrapFlatProcs(s *flatSystem, lanes []*lane) {
	for i, p := range s.procs {
		if s.faulty[i] {
			s.scfg.Procs[i] = wrapProc(p, lanes[i], layerFaultsRecv, layerFaultsRecv)
			continue
		}
		s.scfg.Procs[i] = wrapProc(p, lanes[i], layerCoreOrdinary, layerCoreTimer)
	}
}

// ---- flat-engine ----

type flatEngine struct {
	n, rounds int
	seed      int64
}

func newFlatEngine(sz sizes, seed int64) instance {
	return &flatEngine{n: sz.engineN, rounds: sz.rounds, seed: seed}
}

func (w *flatEngine) system() (*flatSystem, error) {
	cfg, err := largeNConfig(w.n)
	if err != nil {
		return nil, err
	}
	return largeNSystem(cfg, w.rounds, w.seed), nil
}

func (w *flatEngine) assemble() error {
	s, err := w.system()
	if err != nil {
		return err
	}
	_, err = sim.New(s.scfg)
	return err
}

// run runs eng to s's horizon and returns the op's outcome. Without an
// observer the engine stays the whole op, so the steady skew is read here
// instead: the largest spread of local times at quarter-period steps from
// the warm-up on, a maximum over many instants that varies less from seed
// to seed than the spread at one instant.
func (w *flatEngine) run(eng *sim.Engine, s *flatSystem) (outcome, error) {
	var skew float64
	step := clock.Real(s.cfg.P / 4)
	for at := s.warmup; ; at += step {
		if at > s.horizon {
			at = s.horizon
		}
		if err := eng.Run(at); err != nil {
			return outcome{}, err
		}
		lo, hi, _ := eng.LocalTimeSpread(at)
		skew = math.Max(skew, float64(hi-lo))
		if at == s.horizon {
			break
		}
	}
	return outcome{
		Events:   int64(eng.Steps()),
		Msgs:     eng.MessagesSent(),
		MinRound: minProcRound(s.procs),
		Skew:     skew,
		Bound:    s.cfg.Gamma(),
		Trials:   1,
	}, nil
}

func (w *flatEngine) op() (outcome, error) {
	s, err := w.system()
	if err != nil {
		return outcome{}, err
	}
	eng, err := sim.New(s.scfg)
	if err != nil {
		return outcome{}, err
	}
	return w.run(eng, s)
}

func (w *flatEngine) traced(t *tracer) (outcome, error) {
	ln := t.main
	ln.enter(layerExpBuild)
	s, err := w.system()
	if err != nil {
		ln.exit()
		return outcome{}, err
	}
	lanes := sameLane(ln, w.n)
	wrapFlatProcs(s, lanes)
	s.scfg.Delay = wrapDelay(s.scfg.Delay, lanes)
	eng, err := sim.New(s.scfg)
	ln.exit()
	if err != nil {
		return outcome{}, err
	}
	ln.enter(layerSim)
	o, err := w.run(eng, s)
	ln.exit()
	if err != nil {
		return outcome{}, err
	}
	t.events, t.queuePeak = int64(eng.Steps()), eng.QueuePeak()
	return o, nil
}

func (w *flatEngine) complete(*outcome) error { return nil }

// ---- two-tier-sharded ----

type twoTier struct {
	n, shards, rounds int
	seed              int64
}

func newTwoTier(sz sizes, seed int64) instance {
	return &twoTier{n: sz.twoTierN, shards: sz.shards, rounds: sz.rounds, seed: seed}
}

func (w *twoTier) build() (*hier.System, *sim.ShardedEngine, error) {
	h, err := twoTierConfig(w.n)
	if err != nil {
		return nil, nil, err
	}
	s, err := hier.Build(h)
	if err != nil {
		return nil, nil, err
	}
	se, err := sim.NewSharded(s.SimConfig(w.rounds, w.seed), w.shards)
	return s, se, err
}

func (w *twoTier) assemble() error {
	_, _, err := w.build()
	return err
}

var twoTierVerdictNames = []string{"agreement", "hier-agreement"}

func (w *twoTier) op() (outcome, error) {
	c, err := clocksync.New(w.n, 0, clocksync.WithClusters(0), clocksync.WithShards(w.shards), clocksync.WithSeed(w.seed))
	if err != nil {
		return outcome{}, err
	}
	rep, err := c.Run(w.rounds)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		Msgs:     rep.MessagesSent,
		MinRound: rep.Rounds,
		Skew:     rep.SteadySkew,
		Bound:    rep.Gamma,
		Verdicts: verdicts(twoTierVerdictNames, []bool{rep.AgreementHolds(), rep.InnerAgreementOK}),
		Trials:   1,
	}, nil
}

func (w *twoTier) traced(t *tracer) (outcome, error) {
	ln := t.main
	ln.enter(layerHierBuild)
	h, err := twoTierConfig(w.n)
	if err != nil {
		ln.exit()
		return outcome{}, err
	}
	s, err := hier.Build(h)
	if err != nil {
		ln.exit()
		return outcome{}, err
	}
	scfg := s.SimConfig(w.rounds, w.seed)
	shards, byProc := shardLanes(w.n, w.shards, t.newLane)
	scfg.Procs = make([]sim.Process, w.n)
	for i, p := range s.Procs {
		scfg.Procs[i] = wrapProc(p, byProc[i], layerHierRecv, layerHierRecv)
	}
	scfg.Delay = wrapDelay(scfg.Delay, byProc)
	se, err := sim.NewSharded(scfg, w.shards)
	if err != nil {
		ln.exit()
		return outcome{}, err
	}
	if err := checkShardBlocks(se, w.n); err != nil {
		ln.exit()
		return outcome{}, err
	}
	warm, horizon := s.Warmup(w.rounds), s.Horizon(w.rounds)
	chk := invariant.NewHierAgreement(h.GammaComposed(), h.GammaInner(), h.ClusterSize, warm)
	skew := &spreadRecorder{warm: warm}
	t.window = &windowClock{shards: shards}
	for _, o := range wrapCutSamplers([]sim.Sampler{chk, skew}, []layer{layerInvHierAgreement, layerMetricsSkew}, ln, t.window) {
		if err := se.Observe(o); err != nil {
			ln.exit()
			return outcome{}, err
		}
	}
	ln.exit()
	ln.enter(layerSim)
	t.window.start()
	err = se.Run(horizon)
	ln.exit()
	if err != nil {
		return outcome{}, err
	}
	lo, hi, count := se.LocalTimeSpread(horizon)
	skew.record(horizon, lo, hi, count)
	t.shardLanes = shards
	t.events, t.queuePeak = int64(se.Steps()), se.QueuePeak()
	st := se.Stats()
	t.counters["shard.windows"] = float64(st.Windows)
	t.counters["shard.barriers"] = float64(st.Barriers)
	t.counters["shard.batched_windows"] = float64(st.BatchedWindows)
	t.counters["hier.msgs_per_round"] = float64(se.MessagesSent()) / float64(w.rounds)
	t.counters["hier.queue_peak"] = float64(se.QueuePeak())
	return outcome{
		Events:   int64(se.Steps()),
		Msgs:     se.MessagesSent(),
		MinRound: minMemberRound(s.Procs),
		Skew:     skew.steady,
		Bound:    h.GammaComposed(),
		Verdicts: verdicts(twoTierVerdictNames, []bool{skew.steady <= h.GammaComposed(), chk.Ok()}),
		Trials:   1,
	}, nil
}

// checkShardBlocks confirms the sharded engine placed processes the way
// shardLanes assumes, so that no two shard goroutines share a lane: each
// shard starts with exactly its block's START events queued.
func checkShardBlocks(se *sim.ShardedEngine, n int) error {
	k := se.Shards()
	per := (n + k - 1) / k
	for i := 0; i < k; i++ {
		want := min(per, n-i*per)
		if got := se.Shard(i).QueueLen(); got != want {
			return fmt.Errorf("shard %d holds %d START events, want %d: process placement is not ⌈n/k⌉ blocks", i, got, want)
		}
	}
	return nil
}

func (w *twoTier) complete(o *outcome) error {
	s, se, err := w.build()
	if err != nil {
		return err
	}
	if err := se.Run(s.Horizon(w.rounds)); err != nil {
		return err
	}
	if se.MessagesSent() != o.Msgs {
		return fmt.Errorf("replay sent %d messages, the facade run %d: the rebuilt system differs", se.MessagesSent(), o.Msgs)
	}
	o.Events = int64(se.Steps())
	return nil
}

// ---- conformance-sweep ----

type trialSpec struct {
	strat     faults.Strategy
	n, f      int
	extremal  bool
	seed      int64 // engine (delay) seed
	faultSeed int64
}

type sweep struct {
	trials  []trialSpec
	rounds  int
	workers int
}

func newSweep(sz sizes, seed int64) instance {
	w := &sweep{rounds: sz.rounds, workers: runtime.GOMAXPROCS(0)}
	for _, s := range faults.Strategies() {
		for _, nf := range sz.sweepGrid {
			for _, extremal := range []bool{false, true} {
				for k := 0; k < sz.sweepSeeds; k++ {
					i := len(w.trials)
					w.trials = append(w.trials, trialSpec{
						strat: s, n: nf[0], f: nf[1], extremal: extremal,
						seed:      runner.DeriveSeed(seed, 2*i),
						faultSeed: runner.DeriveSeed(seed, 2*i+1),
					})
				}
			}
		}
	}
	return w
}

// workload renders a trial as the exp.Workload E17 would build: the
// strategy's fault mix on the top f ids (adaptive strategies through
// MixAdaptive), the invariant suite attached.
func (w *sweep) workload(p trialSpec) exp.Workload {
	cfg := core.Config{Params: analysis.Default(p.n, p.f)}
	wl := exp.Workload{Cfg: cfg, Rounds: w.rounds, Seed: p.seed, CheckInvariants: true}
	if p.strat.Adaptive() {
		var members []sim.ProcID
		if p.strat.WantsMembers {
			members = faults.TopIDs(p.f, p.n)
		}
		wl.Faults, wl.Adversary = faults.MixAdaptive(p.strat, cfg, members, p.faultSeed)
	} else {
		wl.Faults = faults.Mix(p.strat, cfg, faults.TopIDs(p.f, p.n), p.faultSeed)
	}
	if p.extremal {
		wl.Delay = sim.ExtremalDelay{Delta: cfg.Delta, Eps: cfg.Eps}
	}
	return wl
}

func (w *sweep) assemble() error {
	for _, p := range w.trials {
		wl := w.workload(p)
		s := assembleFlat(wl.Cfg, wl.Rounds, wl.Seed, wl.Delay, wl.Faults, wl.Adversary)
		if _, err := sim.New(s.scfg); err != nil {
			return err
		}
	}
	return nil
}

// trialResult is one trial's share of the op digest.
type trialResult struct {
	steps, msgs int64
	rounds      int
	ratio       float64 // steady skew / γ
	oks         []bool  // per invariant checker
	miss        string
	wall        float64
}

var sweepVerdictNames = []string{"agreement", "validity", "monotonicity", "adjbound"}

func trialFromSuite(p trialSpec, steps int, msgs int64, rounds int, steady, gamma float64, suite *invariant.Suite, want int) trialResult {
	r := trialResult{steps: int64(steps), msgs: msgs, rounds: rounds, ratio: steady / gamma}
	var vacuous []string
	for _, c := range suite.Checkers() {
		r.oks = append(r.oks, c.Ok())
		if c.Checked() == 0 {
			vacuous = append(vacuous, c.Name())
		}
	}
	var why []string
	if len(vacuous) > 0 {
		why = append(why, "checkers evaluated nothing: "+strings.Join(vacuous, ","))
	}
	if rounds < want {
		why = append(why, fmt.Sprintf("reached round %d of %d", rounds, want))
	}
	if !suite.Ok() {
		why = append(why, suite.Summary())
	}
	if len(why) > 0 {
		delay := "uniform"
		if p.extremal {
			delay = "extremal"
		}
		r.miss = fmt.Sprintf("%s n=%d f=%d %s seed=%d: %s", p.strat.Name, p.n, p.f, delay, p.seed, strings.Join(why, "; "))
	}
	return r
}

func (w *sweep) op() (outcome, error) {
	results, err := runner.Map(w.workers, len(w.trials), func(i int) (trialResult, error) {
		t0 := nanotime()
		p := w.trials[i]
		wl := w.workload(p)
		res, err := exp.Run(wl)
		if err != nil {
			return trialResult{}, fmt.Errorf("trial %d (%s n=%d): %w", i, p.strat.Name, p.n, err)
		}
		r := trialFromSuite(p, res.Steps(), res.MessagesSent(), res.Rounds.Rounds(), res.Skew.MaxAfterWarmup(), wl.Cfg.Gamma(), res.Invariants, w.rounds)
		r.wall = float64(nanotime()-t0) / 1e9
		return r, nil
	})
	if err != nil {
		return outcome{}, err
	}
	return w.fold(results), nil
}

func (w *sweep) traced(t *tracer) (outcome, error) {
	var mu sync.Mutex
	var busy int64
	t0 := nanotime()
	results, err := runner.Map(w.workers, len(w.trials), func(i int) (trialResult, error) {
		start := nanotime()
		ln := t.newLane()
		p := w.trials[i]
		ln.enter(layerExpBuild)
		wl := w.workload(p)
		s := assembleFlat(wl.Cfg, wl.Rounds, wl.Seed, wl.Delay, wl.Faults, wl.Adversary)
		lanes := sameLane(ln, p.n)
		wrapFlatProcs(s, lanes)
		s.scfg.Delay = wrapDelay(s.scfg.Delay, lanes)
		if wl.Adversary != nil {
			s.scfg.Adversary = wrapAdversary(wl.Adversary, ln)
		}
		eng, err := sim.New(s.scfg)
		if err != nil {
			ln.exit()
			return trialResult{}, err
		}
		rec := s.recorders()
		obs, ls := rec.observers()
		for j, o := range obs {
			eng.Observe(wrapObserver(o, ln, ls[j]))
		}
		ln.exit()
		ln.enter(layerSim)
		err = eng.Run(s.horizon)
		ln.exit()
		if err != nil {
			return trialResult{}, fmt.Errorf("trial %d (%s n=%d): %w", i, p.strat.Name, p.n, err)
		}
		r := trialFromSuite(p, eng.Steps(), eng.MessagesSent(), rec.rounds.Rounds(), rec.skew.MaxAfterWarmup(), wl.Cfg.Gamma(), rec.suite, w.rounds)
		end := nanotime()
		r.wall = float64(end-start) / 1e9
		mu.Lock()
		t.main.add(ln)
		busy += end - start
		if q := eng.QueuePeak(); q > t.queuePeak {
			t.queuePeak = q
		}
		mu.Unlock()
		return r, nil
	})
	batch := nanotime() - t0
	if err != nil {
		return outcome{}, err
	}
	o := w.fold(results)
	t.events = o.Events
	t.laneNs = busy
	t.counters["exp.build_s"] = float64(t.main.self(layerExpBuild)) / 1e9
	t.counters["runner.trial_s"] = float64(busy) / 1e9 / float64(len(w.trials))
	t.counters["runner.busy_frac"] = float64(busy) / (float64(w.workers) * float64(batch))
	return o, nil
}

// fold combines the trials, in trial order, into the op's outcome.
func (w *sweep) fold(rs []trialResult) outcome {
	o := outcome{Bound: 1, MinRound: -1, Trials: len(rs)}
	h := fnv.New64a()
	all := make([]bool, len(sweepVerdictNames))
	for i := range all {
		all[i] = true
	}
	for _, r := range rs {
		o.Events += r.steps
		o.Msgs += r.msgs
		if o.MinRound < 0 || r.rounds < o.MinRound {
			o.MinRound = r.rounds
		}
		if r.ratio > o.Skew {
			o.Skew = r.ratio
		}
		for i, ok := range r.oks {
			all[i] = all[i] && ok
		}
		if r.miss != "" {
			o.Misses = append(o.Misses, r.miss)
		}
		fmt.Fprintf(h, "%d|%d|%d|%x|%v;", r.steps, r.msgs, r.rounds, math.Float64bits(r.ratio), r.oks)
		o.trialWalls = append(o.trialWalls, r.wall)
	}
	o.TrialHash = h.Sum64()
	o.Verdicts = verdicts(sweepVerdictNames, all)
	return o
}

func (w *sweep) complete(*outcome) error { return nil }

// ---- shared helpers ----

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest-ranked sample with at least ten samples beyond
// it, the percentile it sits at, and how many samples lie beyond it. With
// fewer than eleven samples it is the maximum, with none beyond.
func tail(xs []float64) (value, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 11
	if k < 0 {
		k = len(s) - 1
	}
	return s[k], 100 * float64(k+1) / float64(len(s)), len(s) - 1 - k
}
