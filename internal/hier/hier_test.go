package hier

import (
	"math"
	"strings"
	"testing"

	"repro/internal/invariant"
	"repro/internal/sim"
)

// runSystem executes a built system for rounds maintenance rounds on the
// sequential engine and returns the engine plus the attached checker.
func runSystem(t *testing.T, s *System, rounds int, seed int64) (*sim.Engine, *invariant.HierAgreement) {
	t.Helper()
	e, err := sim.New(s.SimConfig(rounds, seed))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	chk := invariant.NewHierAgreement(
		s.Cfg.GammaComposed(), s.Cfg.GammaInner(),
		s.Cfg.ClusterSize, s.Warmup(rounds))
	e.Observe(chk)
	if err := e.Run(s.Horizon(rounds)); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e, chk
}

// TestConverges: a benign two-tier system keeps every nonfaulty pair within
// γ_composed and every cluster within γ_in after warmup.
func TestConverges(t *testing.T) {
	for _, tc := range []struct{ n, c int }{
		{12, 4},  // even split
		{14, 4},  // last cluster smaller (c does not divide n)
		{8, 1},   // single-process clusters: outer tier does all the work
		{16, 16}, // one cluster: degenerate, inner tier does all the work
	} {
		s, err := Build(Default(tc.n, tc.c))
		if err != nil {
			t.Fatalf("n=%d c=%d: %v", tc.n, tc.c, err)
		}
		_, chk := runSystem(t, s, 6, 1)
		if chk.Checked() == 0 {
			t.Fatalf("n=%d c=%d: checker never sampled", tc.n, tc.c)
		}
		if !chk.Ok() {
			t.Errorf("n=%d c=%d: %v", tc.n, tc.c, chk.Violations())
		}
	}
}

// TestTrafficReduction: the measured per-round copy count matches the
// MsgsPerRound estimate and beats the flat mesh.
func TestTrafficReduction(t *testing.T) {
	const n, c, rounds = 60, 6, 6
	s, err := Build(Default(n, c))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := runSystem(t, s, rounds, 1)
	perRound := float64(e.MessagesSent()) / float64(rounds)
	if est := s.Cfg.MsgsPerRound(); perRound > 1.25*est {
		t.Errorf("measured %.0f copies/round, estimate %.0f", perRound, est)
	}
	if flat := s.Cfg.MsgsPerRoundFlat(); perRound > 0.5*flat {
		t.Errorf("measured %.0f copies/round not below half of flat %.0f", perRound, flat)
	}
}

// TestDeterministicAcrossShards: the same system produces an identical
// digest on the sequential engine and on 2, 4 and 8 shards, including a
// representative sitting on a shard boundary (c=6 does not divide n/k for
// any of the shard counts, so cluster id ranges straddle shard cuts).
func TestDeterministicAcrossShards(t *testing.T) {
	const n, c, rounds = 60, 6, 4
	type digest struct {
		events int
		msgs   int64
		spread float64
	}
	run := func(k int) digest {
		s, err := Build(Default(n, c))
		if err != nil {
			t.Fatal(err)
		}
		cfg := s.SimConfig(rounds, 7)
		horizon := s.Horizon(rounds)
		se, err := sim.NewSharded(cfg, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := se.Run(horizon); err != nil {
			t.Fatal(err)
		}
		lo, hi, _ := se.LocalTimeSpread(horizon)
		return digest{se.Steps(), se.MessagesSent(), float64(hi - lo)}
	}
	base := run(1)
	if base.events == 0 || base.msgs == 0 {
		t.Fatalf("empty execution: %+v", base)
	}
	for _, k := range []int{2, 4, 8} {
		if got := run(k); got != base {
			t.Errorf("shards=%d diverged: %+v vs %+v", k, got, base)
		}
	}
}

// TestElection: a crashed initial representative is deposed and its cluster
// re-disciplined by the next candidate; the system still converges with the
// faulty process excluded.
func TestElection(t *testing.T) {
	const n, c, rounds = 12, 4, 10
	s, err := Build(Default(n, c))
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 1's representative (id 4) is silent from the start.
	s.Procs[4] = silentProc{}
	cfg := s.SimConfig(rounds, 3)
	cfg.Faulty = make([]bool, n)
	cfg.Faulty[4] = true
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chk := invariant.NewHierAgreement(
		s.Cfg.GammaComposed(), s.Cfg.GammaInner(),
		s.Cfg.ClusterSize, s.Warmup(rounds))
	e.Observe(chk)
	if err := e.Run(s.Horizon(rounds)); err != nil {
		t.Fatal(err)
	}
	next := s.Procs[5].(*Member)
	if !next.ActingRep() {
		t.Fatalf("candidate 5 did not take over for the silent representative")
	}
	if got := next.Representative(); got != 5 {
		t.Fatalf("member 5 believes the representative is %d", got)
	}
	for _, id := range []int{6, 7} {
		if got := s.Procs[id].(*Member).Representative(); got != 5 {
			t.Errorf("follower %d believes the representative is %d, want 5", id, got)
		}
	}
	if chk.Checked() == 0 || !chk.Ok() {
		t.Errorf("post-election agreement: checked=%d %v", chk.Checked(), chk.Violations())
	}
}

// silentProc is a crashed-from-the-start automaton.
type silentProc struct{}

func (silentProc) Receive(*sim.Context, sim.Message) {}

// TestValidateRejects: topology errors are named, not panics.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"cluster larger than n", func(c *Config) { c.ClusterSize = 100 }},
		{"last cluster too small for f_in", func(c *Config) { c.N = 13; c.FIn = 1 }},
		{"outer tier below 3f+1", func(c *Config) { c.FOut = 5 }},
		{"election timeout within one round", func(c *Config) { c.ElectAfter = 0.5 }},
	} {
		cfg := Default(12, 4)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
}

// TestValidateRejectsNonFinite: every float input of a two-tier config is
// checked for NaN/±Inf and named in the error — a NaN fails every ordered
// comparison, so without the gate it reached the engine.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"NaN rho", func(c *Config) { c.Rho = nan }, "ρ = NaN"},
		{"+Inf rho", func(c *Config) { c.Rho = inf }, "ρ = +Inf"},
		{"NaN inner delta", func(c *Config) { c.InnerDelta = nan }, "inner tier: δ = NaN"},
		{"NaN inner eps", func(c *Config) { c.InnerEps = nan }, "inner tier: ε = NaN"},
		{"+Inf inner beta", func(c *Config) { c.InnerBeta = inf }, "inner tier: β = +Inf"},
		{"NaN outer delta", func(c *Config) { c.OuterDelta = nan }, "outer tier: δ = NaN"},
		{"-Inf outer eps", func(c *Config) { c.OuterEps = -inf }, "outer tier: ε = -Inf"},
		{"NaN outer beta", func(c *Config) { c.OuterBeta = nan }, "outer tier: β = NaN"},
		{"NaN P", func(c *Config) { c.P = nan }, "P = NaN"},
		{"NaN T0", func(c *Config) { c.T0 = nan }, "T⁰ = NaN"},
		{"NaN election timeout", func(c *Config) { c.ElectAfter = nan }, "election timeout NaN must be finite"},
		{"+Inf election timeout", func(c *Config) { c.ElectAfter = inf }, "election timeout +Inf must be finite"},
	} {
		cfg := Default(12, 4)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestGammaComposedFinite sanity-checks the derived bound's shape: positive,
// finite, and strictly wider than either tier alone.
func TestGammaComposedFinite(t *testing.T) {
	cfg := Default(64, 8)
	g := cfg.GammaComposed()
	if math.IsNaN(g) || math.IsInf(g, 0) || g <= 0 {
		t.Fatalf("γ_composed = %v", g)
	}
	if in := cfg.InnerParams(0).Gamma(); g <= in {
		t.Errorf("γ_composed %v not wider than γ_in %v", g, in)
	}
	if out := cfg.OuterParams().Gamma(); g <= out {
		t.Errorf("γ_composed %v not wider than γ_out %v", g, out)
	}
}

// TestClusteredDelayBounds: the envelope encloses both bands and keeps the
// sharded lookahead positive.
func TestClusteredDelayBounds(t *testing.T) {
	d := NewClusteredDelay(Default(12, 4))
	delta, eps := d.Bounds()
	if delta-eps <= 0 {
		t.Fatalf("lookahead δ−ε = %v not positive", delta-eps)
	}
	const tol = 1e-12
	if lo := delta - eps; lo > d.InnerDelta-d.InnerEps+tol || lo > d.OuterDelta-d.OuterEps+tol {
		t.Errorf("envelope floor %v above a band floor", lo)
	}
	if hi := delta + eps; hi < d.InnerDelta+d.InnerEps-tol || hi < d.OuterDelta+d.OuterEps-tol {
		t.Errorf("envelope ceiling %v below a band ceiling", hi)
	}
}

// orderObserver records the merged annotation stream and the window-cut
// sample times a sharded run dispatches — the full observable sequence an
// experiment attached to a ShardedEngine would see.
type orderObserver struct {
	anns []sim.Annotation
	cuts []float64
}

func (o *orderObserver) Sample(e *sim.Engine, _ bool) { o.cuts = append(o.cuts, float64(e.Now())) }
func (o *orderObserver) OnAnnotation(_ *sim.Engine, a sim.Annotation) {
	o.anns = append(o.anns, a)
}

// TestMergedWindowObserverOrdering: observers attached to a sharded two-tier
// run see one deterministic merged sequence — identical annotations in
// identical order, and identical window-cut sample times — at k ∈ {2, 4, 8}
// as on a single shard. The topology is chosen so clusters sit mid-range and
// straddle shard cuts (c = 6 divides none of the per-shard id spans), so the
// merge has to interleave annotations from processes owned by different
// shards, including a representative and its followers split across a cut.
func TestMergedWindowObserverOrdering(t *testing.T) {
	const n, c, rounds = 60, 6, 4
	run := func(k int) *orderObserver {
		s, err := Build(Default(n, c))
		if err != nil {
			t.Fatal(err)
		}
		se, err := sim.NewSharded(s.SimConfig(rounds, 11), k)
		if err != nil {
			t.Fatal(err)
		}
		obs := &orderObserver{}
		if err := se.Observe(obs); err != nil {
			t.Fatal(err)
		}
		if err := se.Run(s.Horizon(rounds)); err != nil {
			t.Fatal(err)
		}
		return obs
	}
	base := run(1)
	if len(base.anns) == 0 || len(base.cuts) == 0 {
		t.Fatalf("single-shard run observed nothing: %d annotations, %d cuts", len(base.anns), len(base.cuts))
	}
	// The stream must include mid-topology processes (cluster 4: ids 24–29,
	// astride the shard cut at every k tested) — otherwise the ordering
	// comparison would not exercise the cross-shard merge.
	mid := false
	for _, a := range base.anns {
		if a.Proc >= 24 && a.Proc < 30 {
			mid = true
			break
		}
	}
	if !mid {
		t.Fatal("no annotations from the mid-topology cluster (ids 24-29)")
	}
	for _, k := range []int{2, 4, 8} {
		got := run(k)
		if len(got.anns) != len(base.anns) {
			t.Fatalf("shards=%d: %d annotations, want %d", k, len(got.anns), len(base.anns))
		}
		for i := range got.anns {
			if got.anns[i] != base.anns[i] {
				t.Fatalf("shards=%d: annotation %d = %+v, single-shard has %+v", k, i, got.anns[i], base.anns[i])
			}
		}
		if len(got.cuts) != len(base.cuts) {
			t.Fatalf("shards=%d: %d window-cut samples, want %d", k, len(got.cuts), len(base.cuts))
		}
		for i := range got.cuts {
			if got.cuts[i] != base.cuts[i] {
				t.Fatalf("shards=%d: cut %d at %v, single-shard at %v", k, i, got.cuts[i], base.cuts[i])
			}
		}
	}
}
