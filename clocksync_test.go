package clocksync_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	clocksync "repro"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n, f    int
		opts    []clocksync.Option
		wantErr bool
	}{
		{"default 7/2", 7, 2, nil, false},
		{"minimum 4/1", 4, 1, nil, false},
		{"fault-free singleton", 1, 0, nil, false},
		{"n too small", 6, 2, nil, true},
		{"too many faults configured", 7, 2, []clocksync.Option{
			clocksync.WithFault(4, clocksync.FaultSilent),
			clocksync.WithFault(5, clocksync.FaultSilent),
			clocksync.WithFault(6, clocksync.FaultSilent),
		}, true},
		{"fault id out of range", 7, 2, []clocksync.Option{
			clocksync.WithFault(7, clocksync.FaultSilent),
		}, true},
		{"bad round length", 7, 2, []clocksync.Option{clocksync.WithRoundLength(1e-4)}, true},
		{"adversary strategy ok", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("skewmax"),
		}, false},
		{"unknown adversary strategy", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("nope"),
		}, true},
		{"adversary + faults conflict", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("two-faced"),
			clocksync.WithFault(6, clocksync.FaultSilent),
		}, true},
		{"adversary + rejoiner conflict", 7, 2, []clocksync.Option{
			clocksync.WithAdversary("two-faced"),
			clocksync.WithRejoiner(6, 30, 0.5),
		}, true},
		{"custom regime ok", 7, 2, []clocksync.Option{
			clocksync.WithRho(1e-6),
			clocksync.WithDelay(1e-3, 0.1e-3),
			clocksync.WithBeta(0.6e-3),
			clocksync.WithRoundLength(0.5),
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := clocksync.New(tt.n, tt.f, tt.opts...)
			if (err != nil) != tt.wantErr {
				t.Errorf("New() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRunFaultFree(t *testing.T) {
	c, err := clocksync.New(7, 2, clocksync.WithSkewSeries(1.0))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(12)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.AgreementHolds() || !rep.AdjustmentBoundHolds() || !rep.ValidityHolds() {
		t.Errorf("paper bounds violated:\n%s", rep)
	}
	if rep.Rounds < 12 {
		t.Errorf("completed %d rounds, want ≥ 12", rep.Rounds)
	}
	if len(rep.SkewSeries) == 0 {
		t.Error("skew series missing despite WithSkewSeries")
	}
	if rep.MessagesSent == 0 {
		t.Error("no messages counted")
	}
	s := rep.String()
	for _, want := range []string{"agreement", "adjustment", "validity", "holds"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestRunRejectsBadRounds(t *testing.T) {
	c, err := clocksync.New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(0); err == nil {
		t.Error("Run(0) should error")
	}
}

func TestRunWithEveryFaultKind(t *testing.T) {
	kinds := []clocksync.FaultKind{
		clocksync.FaultSilent,
		clocksync.FaultTwoFaced,
		clocksync.FaultNoise,
		clocksync.FaultStaleReplay,
		clocksync.FaultCrashMidRun,
	}
	for _, kind := range kinds {
		c, err := clocksync.New(7, 2,
			clocksync.WithFault(5, kind),
			clocksync.WithFault(6, kind))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(10)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AgreementHolds() {
			t.Errorf("fault kind %d: skew %v exceeds γ %v", kind, rep.MaxSkew, rep.Gamma)
		}
	}
}

func TestRunWithRejoiner(t *testing.T) {
	c, err := clocksync.New(7, 2, clocksync.WithRejoiner(6, 5.4, 99.9))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Rejoined {
		t.Error("rejoiner did not complete reintegration")
	}
	if !rep.AgreementHolds() {
		t.Errorf("agreement violated with rejoiner:\n%s", rep)
	}
}

func TestRunVariants(t *testing.T) {
	tests := []struct {
		name string
		opts []clocksync.Option
	}{
		{"mean averaging", []clocksync.Option{clocksync.WithAveraging(clocksync.Mean)}},
		{"k exchanges", []clocksync.Option{clocksync.WithKExchanges(2)}},
		{"stagger", []clocksync.Option{clocksync.WithStagger(1e-3)}},
		{"adversarial delays", []clocksync.Option{clocksync.WithDelayDistribution(clocksync.DelayAdversarial)}},
		{"constant delays", []clocksync.Option{clocksync.WithDelayDistribution(clocksync.DelayConstant)}},
		{"random drift", []clocksync.Option{clocksync.WithRandomDrift()}},
		{"seeded", []clocksync.Option{clocksync.WithSeed(99)}},
		{"t0 shifted", []clocksync.Option{clocksync.WithT0(100)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := clocksync.New(7, 2, tt.opts...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Run(10)
			if err != nil {
				t.Fatal(err)
			}
			// Stagger loosens agreement by a drift-order term only; use a
			// small allowance above γ for it.
			if rep.MaxSkew > rep.Gamma*1.1 {
				t.Errorf("skew %v well above γ %v:\n%s", rep.MaxSkew, rep.Gamma, rep)
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *clocksync.Report {
		c, err := clocksync.New(7, 2, clocksync.WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(8)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.MaxSkew != b.MaxSkew || a.MaxAdjustment != b.MaxAdjustment {
		t.Error("same seed produced different runs")
	}
}

func TestRunStartup(t *testing.T) {
	rep, err := clocksync.RunStartup(7, 2, 3.0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BSeries) < 10 {
		t.Fatalf("only %d startup rounds", len(rep.BSeries))
	}
	if !rep.Converged(2.0) {
		t.Errorf("startup did not converge: final %v vs floor %v", rep.FinalSkew, rep.Floor)
	}
	if rep.BSeries[0] < 0.5 {
		t.Errorf("initial closeness %v suspiciously small for 3s spread", rep.BSeries[0])
	}
	if !strings.Contains(rep.String(), "final skew") {
		t.Error("startup report rendering incomplete")
	}
}

func TestRunStartupValidation(t *testing.T) {
	if _, err := clocksync.RunStartup(3, 1, 1.0, 5); err == nil {
		t.Error("n=3,f=1 should be rejected")
	}
}

func TestParamsExposed(t *testing.T) {
	c, err := clocksync.New(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Params()
	if p.N != 7 || p.F != 2 {
		t.Errorf("Params = %+v", p)
	}
	if p.Gamma() <= 0 {
		t.Error("Gamma not positive")
	}
}

func TestRunEstablishThenMaintain(t *testing.T) {
	rep, err := clocksync.RunEstablishThenMaintain(7, 2, 2.0, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds < 5 {
		t.Errorf("maintenance reached only round %d", rep.Rounds)
	}
	if rep.SteadySkew > rep.Gamma {
		t.Errorf("steady maintenance skew %v exceeds γ %v", rep.SteadySkew, rep.Gamma)
	}
	if rep.MaxAdjustment > rep.AdjBound {
		t.Errorf("steady |ADJ| %v exceeds bound %v", rep.MaxAdjustment, rep.AdjBound)
	}
}

func TestRunEstablishThenMaintainValidation(t *testing.T) {
	if _, err := clocksync.RunEstablishThenMaintain(3, 1, 1.0, 4, 5); err == nil {
		t.Error("n=3,f=1 accepted")
	}
}

func TestWithDerivedBeta(t *testing.T) {
	c, err := clocksync.New(7, 2,
		clocksync.WithRho(2e-4),
		clocksync.WithRoundLength(5),
		clocksync.WithDerivedBeta())
	if err != nil {
		t.Fatal(err)
	}
	p := c.Params()
	// Derived β for ρ=2e−4, P=5s must be ≈ 4ε+4ρP ≈ 8ms, not the 5.5ms
	// default (which would be infeasible here).
	if p.Beta < 8e-3 {
		t.Errorf("derived β = %v, want ≥ 8ms", p.Beta)
	}
	if _, err := c.Run(6); err != nil {
		t.Fatal(err)
	}
}

func TestWithTrace(t *testing.T) {
	c, err := clocksync.New(4, 1, clocksync.WithTrace(50))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace == "" {
		t.Fatal("trace missing")
	}
	for _, want := range []string{"START", "ORDINARY", "round_begin"} {
		if !strings.Contains(rep.Trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// TestTwoTierRun drives the two-tier hierarchy through the facade, both
// sequential and sharded, and checks the composed report plus determinism
// of the execution itself (message count) across the engines.
func TestTwoTierRun(t *testing.T) {
	run := func(shards int) *clocksync.Report {
		t.Helper()
		opts := []clocksync.Option{clocksync.WithClusters(6)}
		if shards > 1 {
			opts = append(opts, clocksync.WithShards(shards))
		}
		c, err := clocksync.New(60, 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(6)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(1)
	if !seq.TwoTier || seq.Clusters != 10 || seq.ClusterSize != 6 {
		t.Fatalf("topology fields wrong: %+v", seq)
	}
	if !seq.AgreementHolds() {
		t.Errorf("composed agreement violated: steady %v vs γ_composed %v", seq.SteadySkew, seq.Gamma)
	}
	if !seq.InnerAgreementOK {
		t.Error("hier-agreement invariant violated in a benign run")
	}
	if seq.Rounds < 6 {
		t.Errorf("completed %d rounds, want ≥ 6", seq.Rounds)
	}
	s := seq.String()
	for _, want := range []string{"two-tier", "γ_composed", "hier-agreement"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
	sh := run(4)
	if sh.MessagesSent != seq.MessagesSent {
		t.Errorf("sharded run sent %d messages, sequential %d — execution diverged", sh.MessagesSent, seq.MessagesSent)
	}
	if !sh.AgreementHolds() || !sh.InnerAgreementOK {
		t.Errorf("sharded composed agreement violated: %+v", sh)
	}
}

// TestTwoTierRejections pins the named-error rejections: options that
// configure the flat mesh must not be silently reinterpreted by a two-tier
// topology, and the error must name the offending option.
func TestTwoTierRejections(t *testing.T) {
	tests := []struct {
		name string
		opt  clocksync.Option
	}{
		{"WithDelay", clocksync.WithDelay(5e-3, 1e-3)},
		{"WithBeta", clocksync.WithBeta(4e-3)},
		{"WithDerivedBeta", clocksync.WithDerivedBeta()},
		{"WithAveraging", clocksync.WithAveraging(clocksync.Mean)},
		{"WithKExchanges", clocksync.WithKExchanges(2)},
		{"WithStagger", clocksync.WithStagger(1e-4)},
		{"WithDelayDistribution", clocksync.WithDelayDistribution(clocksync.DelayAdversarial)},
		{"WithRandomDrift", clocksync.WithRandomDrift()},
		{"WithInitialSpread", clocksync.WithInitialSpread(1e-3)},
		{"WithSkewSeries", clocksync.WithSkewSeries(1.0)},
		{"WithFault", clocksync.WithFault(0, clocksync.FaultSilent)},
		{"WithAdversary", clocksync.WithAdversary("skewmax")},
		{"WithRejoiner", clocksync.WithRejoiner(1, 3, 0.1)},
		{"WithTrace", clocksync.WithTrace(10)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := clocksync.New(60, 0, clocksync.WithClusters(6), tc.opt)
			if err == nil {
				t.Fatalf("New accepted %s with a two-tier topology", tc.name)
			}
			if !strings.Contains(err.Error(), tc.name) {
				t.Errorf("error %q does not name %s", err, tc.name)
			}
		})
	}
	// f is f_out in two-tier mode: a budget the cluster count cannot
	// support must be rejected by the outer tier's A2.
	if _, err := clocksync.New(60, 5, clocksync.WithClusters(6)); err == nil {
		t.Error("New accepted f_out = 5 with only 10 clusters (needs ≥ 16)")
	}
	// Oversized cluster.
	if _, err := clocksync.New(10, 0, clocksync.WithClusters(11)); err == nil {
		t.Error("New accepted a cluster size exceeding n")
	}
}

// TestRejectsOutOfDomainOptions pins the entry points' answer to option
// values outside their domain: a named error, never a panic or a silent
// reinterpretation. NaN ρ used to pass validation and panic inside the
// engine's calendar queue; WithShards(-3) and WithSkewSeries(0 or NaN)
// used to be accepted.
func TestRejectsOutOfDomainOptions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name     string
		n, f     int
		opts     []clocksync.Option
		sentinel error  // non-nil: errors.Is must match
		want     string // substring the error must contain
	}{
		{"NaN rho", 4, 1, []clocksync.Option{clocksync.WithRho(nan)}, nil, "ρ = NaN"},
		{"+Inf rho", 4, 1, []clocksync.Option{clocksync.WithRho(inf)}, nil, "ρ = +Inf"},
		{"NaN delay", 4, 1, []clocksync.Option{clocksync.WithDelay(nan, 1e-3)}, nil, "δ = NaN"},
		{"NaN eps", 4, 1, []clocksync.Option{clocksync.WithDelay(10e-3, nan)}, nil, "ε = NaN"},
		{"NaN beta", 4, 1, []clocksync.Option{clocksync.WithBeta(nan)}, nil, "β = NaN"},
		{"+Inf round length", 4, 1, []clocksync.Option{clocksync.WithRoundLength(inf)}, nil, "P = +Inf"},
		{"NaN T0", 4, 1, []clocksync.Option{clocksync.WithT0(nan)}, nil, "T⁰ = NaN"},
		{"NaN stagger", 4, 1, []clocksync.Option{clocksync.WithStagger(nan)}, nil, "stagger"},
		{"NaN rho two-tier", 60, 0, []clocksync.Option{clocksync.WithClusters(6), clocksync.WithRho(nan)}, nil, "ρ = NaN"},
		{"NaN round length two-tier", 60, 0, []clocksync.Option{clocksync.WithClusters(6), clocksync.WithRoundLength(nan)}, nil, "P = NaN"},
		{"zero shards", 4, 1, []clocksync.Option{clocksync.WithShards(0)}, clocksync.ErrShardCount, "WithShards(0)"},
		{"negative shards", 4, 1, []clocksync.Option{clocksync.WithShards(-3)}, clocksync.ErrShardCount, "WithShards(-3)"},
		{"negative shards two-tier", 60, 0, []clocksync.Option{clocksync.WithClusters(6), clocksync.WithShards(-3)}, clocksync.ErrShardCount, "WithShards(-3)"},
		{"zero skew bucket", 4, 1, []clocksync.Option{clocksync.WithSkewSeries(0)}, clocksync.ErrSkewBucket, "WithSkewSeries(0)"},
		{"negative skew bucket", 4, 1, []clocksync.Option{clocksync.WithSkewSeries(-1)}, clocksync.ErrSkewBucket, "WithSkewSeries(-1)"},
		{"NaN skew bucket", 4, 1, []clocksync.Option{clocksync.WithSkewSeries(nan)}, clocksync.ErrSkewBucket, "WithSkewSeries(NaN)"},
		{"+Inf skew bucket", 4, 1, []clocksync.Option{clocksync.WithSkewSeries(inf)}, clocksync.ErrSkewBucket, "WithSkewSeries(+Inf)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := clocksync.New(tt.n, tt.f, tt.opts...)
			if err == nil {
				// The bad value must not reach a run either.
				_, err = c.Run(5)
				t.Fatalf("New accepted %s (Run error: %v)", tt.name, err)
			}
			if tt.sentinel != nil && !errors.Is(err, tt.sentinel) {
				t.Errorf("error %q is not %v", err, tt.sentinel)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	// The other entry points resolve options the same way.
	if _, err := clocksync.RunStartup(4, 1, 0.1, 3, clocksync.WithShards(-3)); !errors.Is(err, clocksync.ErrShardCount) {
		t.Errorf("RunStartup(WithShards(-3)) error = %v, want ErrShardCount", err)
	}
	if _, err := clocksync.RunEstablishThenMaintain(4, 1, 0.1, 2, 2, clocksync.WithSkewSeries(nan)); !errors.Is(err, clocksync.ErrSkewBucket) {
		t.Errorf("RunEstablishThenMaintain(WithSkewSeries(NaN)) error = %v, want ErrSkewBucket", err)
	}
	// The in-domain edge still works: one shard is the sequential engine.
	if _, err := clocksync.New(4, 1, clocksync.WithShards(1)); err != nil {
		t.Errorf("WithShards(1) rejected: %v", err)
	}
}
