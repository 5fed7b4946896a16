package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/hier"
	"repro/internal/sim"
)

// smokeSizes runs every workload generator at a size that takes well
// under a second.
var smokeSizes = sizes{
	engineN:  40,
	twoTierN: 64, shards: 2,
	sweepGrid:  [][2]int{{4, 1}, {7, 2}},
	sweepSeeds: 1,
	rounds:     10,
}

func TestWorkloadSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			inst := w.make(smokeSizes, 3)
			if err := inst.assemble(); err != nil {
				t.Fatal(err)
			}
			o, err := inst.op()
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.complete(&o); err != nil {
				t.Fatal(err)
			}
			if m := o.misses(smokeSizes.rounds); len(m) > 0 {
				t.Fatalf("untraced op missed its bounds: %v", m)
			}
			if o.Events == 0 || o.Msgs == 0 {
				t.Fatalf("op reports %d events and %d messages", o.Events, o.Msgs)
			}
			tr := newTracer()
			start := nanotime()
			to, err := inst.traced(tr)
			wall := nanotime() - start
			if err != nil {
				t.Fatal(err)
			}
			if to.digest() != o.digest() {
				t.Fatalf("traced digest %s (%+v) differs from untraced %s (%+v)", to.digest(), to, o.digest(), o)
			}
			v := tr.layerValues(wall)
			if v["sim.self_s"] <= 0 || v["sim.events"] != float64(o.Events) {
				t.Fatalf("engine layer not measured: sim.self_s=%v sim.events=%v", v["sim.self_s"], v["sim.events"])
			}
			if u := v["trace.unattributed_s"]; u < 0 || u > v["trace.lane_s"]/2 {
				t.Fatalf("trace.unattributed_s = %v of trace.lane_s = %v", u, v["trace.lane_s"])
			}
		})
	}
}

// classification reads how the engine classified the values it was given:
// the delay stage's batch fast path, the adversary controller's hooks, the
// route's inline mesh, each process's CorrHolder and the observer slices.
func classification(t *testing.T, e *sim.Engine) map[string]any {
	t.Helper()
	field := func(v reflect.Value, name string) reflect.Value {
		f := v.FieldByName(name)
		if !f.IsValid() {
			t.Fatalf("%s has no field %q: update classification", v.Type(), name)
		}
		return f
	}
	c := map[string]any{}
	pipe := reflect.ValueOf(e.Pipeline()).Elem()
	c["batch delay"] = !field(field(pipe, "Delay"), "batch").IsNil()
	c["mesh route"] = field(field(pipe, "Route"), "mesh").Bool()
	c["adversary"] = e.Adversary() != nil
	if e.Adversary() != nil {
		ctl := reflect.ValueOf(e.Adversary()).Elem()
		c["send hook"] = !field(ctl, "send").IsNil()
		c["receive hook"] = !field(ctl, "recv").IsNil()
	}
	eng := reflect.ValueOf(e).Elem()
	corr := field(eng, "corr")
	var holders []bool
	for i := 0; i < corr.Len(); i++ {
		holders = append(holders, !corr.Index(i).IsNil())
	}
	c["corr holders"] = holders
	for _, s := range []string{"samplers", "annots", "delivery"} {
		c[s] = field(eng, s).Len()
	}
	return c
}

func TestShimsKeepClassification(t *testing.T) {
	cases := []struct {
		name, strat string
		members     bool
	}{
		{"batch delay, no adversary, faulty automata", "two-faced", false},
		{"adaptive adversary with receive hook", "splitter", true},
		{"adaptive adversary without hooks", "skewmax", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(wrap bool) (*sim.Engine, *flatSystem, flatRecorders) {
				cfg := core.Config{Params: analysis.Default(7, 2)}
				s, err := faults.ByName(tc.strat)
				if err != nil {
					t.Fatal(err)
				}
				var mix map[sim.ProcID]func() sim.Process
				var adv sim.Adversary
				if s.Adaptive() {
					var members []sim.ProcID
					if tc.members {
						members = faults.TopIDs(cfg.F, cfg.N)
					}
					mix, adv = faults.MixAdaptive(s, cfg, members, 5)
				} else {
					mix = faults.Mix(s, cfg, faults.TopIDs(cfg.F, cfg.N), 5)
				}
				sys := assembleFlat(cfg, 10, 9, nil, mix, adv)
				rec := sys.recorders()
				obs, ls := rec.observers()
				if wrap {
					ln := newTracer().main
					lanes := sameLane(ln, cfg.N)
					wrapFlatProcs(sys, lanes)
					sys.scfg.Delay = wrapDelay(sys.scfg.Delay, lanes)
					if adv != nil {
						sys.scfg.Adversary = wrapAdversary(adv, ln)
					}
					for i := range obs {
						obs[i] = wrapObserver(obs[i], ln, ls[i])
					}
				}
				e, err := sim.New(sys.scfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range obs {
					e.Observe(o)
				}
				return e, sys, rec
			}
			plain, ps, pr := build(false)
			wrapped, ws, wr := build(true)
			if a, b := classification(t, plain), classification(t, wrapped); !reflect.DeepEqual(a, b) {
				t.Fatalf("classification changed by the shims:\nplain   %v\nwrapped %v", a, b)
			}
			digest := func(e *sim.Engine, s *flatSystem, r flatRecorders) string {
				if err := e.Run(s.horizon); err != nil {
					t.Fatal(err)
				}
				return outcome{
					Events: int64(e.Steps()), Msgs: e.MessagesSent(), MinRound: r.rounds.Rounds(),
					Skew: r.skew.MaxAfterWarmup(), Verdicts: r.suite.Summary(),
				}.digest()
			}
			if a, b := digest(plain, ps, pr), digest(wrapped, ws, wr); a != b {
				t.Fatalf("wrapped digest %s differs from plain %s", b, a)
			}
		})
	}
}

// TestShimsKeepDelayCapabilities covers a delay model without the batch
// fast path (the two-tier clustered delay) next to one with it.
func TestShimsKeepDelayCapabilities(t *testing.T) {
	lanes := sameLane(newTracer().main, 4)
	for _, m := range []sim.DelayModel{
		hier.NewClusteredDelay(hier.Default(64, 8)),
		sim.UniformDelay{Delta: 0.01, Eps: 0.001},
	} {
		_, want := m.(sim.BatchDelayModel)
		_, got := wrapDelay(m, lanes).(sim.BatchDelayModel)
		if got != want {
			t.Errorf("%T: wrapped BatchDelayModel = %v, want %v", m, got, want)
		}
	}
}

func TestPerturbedDigestFails(t *testing.T) {
	inst := newFlatEngine(smokeSizes, 2)
	o, err := inst.op()
	if err != nil {
		t.Fatal(err)
	}
	rc := runConfig{seed: defaultSeed, sz: smokeSizes, pinned: map[string]string{"flat-engine": o.digest()}}
	c := &checker{name: "flat-engine", rc: rc, ref: &o}
	c.check("untraced", 0, o, nil)
	if c.failed != 0 {
		t.Fatalf("the pinned op itself failed: %v", c.failures)
	}
	perturbed := []func(*outcome){
		func(p *outcome) { p.Events++ },
		func(p *outcome) { p.Msgs-- },
		func(p *outcome) { p.Skew = p.Skew * (1 + 1e-12) },
		func(p *outcome) { p.Verdicts += "x" },
	}
	for i, f := range perturbed {
		p := o
		f(&p)
		c.check("untraced", i+1, p, nil)
		if c.failed != i+1 {
			t.Fatalf("perturbation %d was not counted as a failure", i)
		}
	}
	// Away from the default seed an op is checked against the run's first op.
	c = &checker{name: "flat-engine", rc: runConfig{seed: 7, sz: smokeSizes}, ref: &o}
	p := o
	p.Events++
	c.check("untraced", 0, p, nil)
	if c.failed != 1 {
		t.Fatal("an op differing from the run's first op was not counted as a failure")
	}
	// A theorem-bound miss fails even with a matching digest.
	for _, f := range []func(*outcome){
		func(p *outcome) { p.MinRound = smokeSizes.rounds - 1 },
		func(p *outcome) { p.Skew = 2 * p.Bound },
		func(p *outcome) { p.Verdicts = "agreement=VIOLATED" },
	} {
		p := o
		f(&p)
		if len(p.misses(smokeSizes.rounds)) == 0 {
			t.Fatalf("miss not detected in %+v", p)
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	v, pct, beyond := tail(xs)
	if v != 90 || pct != 90 || beyond != 10 {
		t.Fatalf("tail(1..100) = %v at p%v with %d beyond, want 90 at p90 with 10", v, pct, beyond)
	}
	v, pct, beyond = tail([]float64{3, 1, 2})
	if v != 3 || pct != 100 || beyond != 0 {
		t.Fatalf("tail of 3 samples = %v at p%v with %d beyond, want the maximum", v, pct, beyond)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "flat-engine", "--trace", "2"},
		{"--workload", "flat-engine", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// TestResultLine checks the contract's last line: exactly the four keys,
// and exactly the end-to-end metrics BENCHMARK.json declares, each nonzero
// and with its declared unit.
func TestResultLine(t *testing.T) {
	rc := runConfig{seed: 4, seconds: 0.01, minOps: 2, setupReps: 2, sz: smokeSizes}
	w, _ := findWorkload("conformance-sweep")
	res := measure(w, rc)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if len(keys) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
		t.Fatalf("result %+v, failures %v", res, res.detail["failures"])
	}
	spec, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(spec, &bench); err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(bench.EndToEnd) {
		t.Errorf("%d metrics printed, BENCHMARK.json declares %d", len(res.Metrics), len(bench.EndToEnd))
	}
	for _, want := range bench.EndToEnd {
		m, ok := res.Metrics[want.Name]
		if !ok || !(m.Value > 0) || m.Unit != want.Unit {
			t.Errorf("metric %s = %+v, want a positive value in %s", want.Name, m, want.Unit)
		}
	}
}
