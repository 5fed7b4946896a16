package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
)

// defaultSeed is the seed whose op digests are pinned in pinnedDigests.
const defaultSeed = 1

// pinnedDigests is each workload's op digest at defaultSeed and fullSizes.
var pinnedDigests = map[string]string{
	"flat-engine":       "f944b8fff761246c",
	"two-tier-sharded":  "a832ee545ddba345",
	"conformance-sweep": "a1886a3d69190264",
}

// runConfig is one invocation of one workload.
type runConfig struct {
	seed      int64
	seconds   float64
	minOps    int // ops to time even past the deadline
	setupReps int // set-ups to time; setup_s is their median
	sz        sizes
	pinned    map[string]string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's output: the contract's last line, and the detail
// line printed before it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	detail map[string]any
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// timeSetup builds the workload's inputs and assembles its systems reps
// times, returning the set-up times and the instance the ops will use.
func timeSetup(w workload, rc runConfig) ([]float64, instance, error) {
	var times []float64
	var inst instance
	for r := 0; r < rc.setupReps; r++ {
		// Every set-up starts from a heap whose free pages went back to
		// the OS, as a fresh process's would; otherwise whether the last
		// set-up's pages were reused or already scavenged decides the time.
		debug.FreeOSMemory()
		t := nanotime()
		inst = w.make(rc.sz, rc.seed)
		err := inst.assemble()
		times = append(times, secs(nanotime()-t))
		if err != nil {
			return times, inst, fmt.Errorf("set-up: %w", err)
		}
	}
	return times, inst, nil
}

// opRecord is one untraced op as measured.
type opRecord struct {
	wall, cpu float64
	rss       float64 // resident bytes when the op returned
	out       outcome
	err       error
}

// checker judges a run's ops against each other, the pinned digest and
// the theorem bounds. Every failure is counted; none is retried.
type checker struct {
	name     string
	rc       runConfig
	ref      *outcome // first op that completed
	failures []string
	failed   int
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check counts op i as failed if it errored, missed a bound, or its digest
// differs from the run's first op or, at the default seed, the pinned one.
func (c *checker) check(kind string, i int, o outcome, err error) {
	if err != nil {
		c.fail("%s op %d: %v", kind, i, err)
		return
	}
	if m := o.misses(c.rc.sz.rounds); len(m) > 0 {
		c.fail("%s op %d: %v", kind, i, m)
		return
	}
	if c.ref != nil && o.digest() != c.ref.digest() {
		c.fail("%s op %d: digest %s differs from the run's first op %s", kind, i, o.digest(), c.ref.digest())
		return
	}
	if c.rc.seed == defaultSeed && c.rc.pinned != nil {
		if want := c.rc.pinned[c.name]; want != o.digest() {
			c.fail("%s op %d: digest %s, pinned %q", kind, i, o.digest(), want)
		}
	}
}

// runOps times untraced ops, closed loop, until the next op would end past
// the deadline (and at least rc.minOps ran).
func runOps(inst instance, rc runConfig, deadline int64) []opRecord {
	var ops []opRecord
	var walls []float64
	for {
		t, c := nanotime(), cpuTime()
		o, err := inst.op()
		wall := secs(nanotime() - t)
		ops = append(ops, opRecord{wall: wall, cpu: cpuTime() - c, rss: residentBytes(), out: o, err: err})
		walls = append(walls, wall)
		if len(ops) >= rc.minOps && nanotime()+int64(median(walls)*1e9) > deadline {
			return ops
		}
	}
}

// completeRef picks the first op that completed as the run's reference and
// fills in what the untraced op could not observe.
func completeRef(inst instance, ops []opRecord) (*outcome, error) {
	for i := range ops {
		if ops[i].err != nil {
			continue
		}
		ref := ops[i].out
		if err := inst.complete(&ref); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		for j := range ops {
			if ops[j].err == nil && ops[j].out.Events == 0 {
				ops[j].out.Events = ref.Events
			}
		}
		return &ref, nil
	}
	return nil, nil
}

// measure is the untraced run: every end-to-end metric.
func measure(w workload, rc runConfig) result {
	c := &checker{name: w.name, rc: rc}
	res := result{Metrics: map[string]metricValue{}, detail: map[string]any{}}
	setup, inst, err := timeSetup(w, rc)
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.detail["failures"] = []string{err.Error()}
		return res
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops := runOps(inst, rc, nanotime()+int64(rc.seconds*1e9))
	runtime.ReadMemStats(&m1)

	ref, rerr := completeRef(inst, ops)
	c.ref = ref
	if rerr != nil {
		c.fail("%v", rerr)
	}
	var sum float64
	var walls, cpus, rss, trialWalls []float64
	for i, op := range ops {
		c.check("untraced", i, op.out, op.err)
		sum += op.wall
		walls = append(walls, op.wall)
		cpus = append(cpus, op.cpu)
		rss = append(rss, op.rss)
		if op.out.trialWalls != nil {
			trialWalls = append(trialWalls, op.out.trialWalls...)
		} else if op.err == nil {
			trialWalls = append(trialWalls, op.wall)
		}
	}
	res.Attempted = len(ops) + boolInt(rerr != nil)
	res.Failed = c.failed
	res.Correct = c.failed == 0 && ref != nil
	res.detail["failures"] = c.failures
	res.detail["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.detail["setup_s_samples"] = setup
	res.detail["wall_s_samples"] = walls
	res.detail["cpu_s_samples"] = cpus
	res.detail["peak_rss_bytes"] = peakRSS()
	if ref == nil {
		return res
	}
	n := float64(len(ops))
	trials := float64(ref.Trials) * n
	p50 := median(trialWalls)
	tv, pct, beyond := tail(trialWalls)
	put := func(name, unit string, v float64) { res.Metrics[name] = metricValue{v, unit} }
	put("setup_s", "s", median(setup))
	// The mean, not the median: on a shared host op times come in
	// multi-second fast and slow phases, and a median over a run jumps
	// between the two modes while the mean weighs them by how long each
	// lasted.
	put("wall_s", "s", sum/n)
	put("events_per_s", "1/s", float64(ref.Events)*n/sum)
	put("trials_per_s", "1/s", trials/sum)
	put("trial_p50_s", "s", p50)
	put("trial_tail_s", "s", tv)
	// Resident memory as each op returns, its garbage not yet collected,
	// median over the run; not the process's high-water mark, which set-up
	// (480 systems assembled and dropped, 21 times) sets and a GC cycle
	// that ends late lifts by up to 75% in about one run in four.
	put("rss_bytes", "B", median(rss))
	put("alloc_bytes_per_op", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	put("max_skew_over_gamma", "ratio", ref.Skew/ref.Bound)
	put("msgs_per_round", "count", float64(ref.Msgs)/float64(rc.sz.rounds*ref.Trials))
	res.detail["digest"] = ref.digest()
	res.detail["trial_tail_percentile"] = pct
	res.detail["trial_tail_beyond"] = beyond
	res.detail["trial_samples"] = len(trialWalls)
	res.detail["events_per_op"] = ref.Events
	return res
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuTime is the process's user plus system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// residentBytes is the process's resident memory now, from
// /proc/self/statm; where that cannot be read, the high-water mark.
func residentBytes() float64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return float64(pages * int64(os.Getpagesize()))
			}
		}
	}
	return float64(peakRSS())
}

// peakRSS is the process's resident-set high-water mark in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// tracer collects one traced op's spans and the counters the workload
// reports from its engine.
type tracer struct {
	heapPeak   atomic.Uint64
	main       *lane
	shardLanes []*lane
	window     *windowClock
	laneNs     int64 // lane time the layers account for; 0 means the op's wall time
	events     int64
	queuePeak  int
	counters   map[string]float64
}

func newTracer() *tracer {
	t := &tracer{counters: map[string]float64{}}
	t.main = t.newLane()
	return t
}

func (t *tracer) newLane() *lane { return newLane(&t.heapPeak) }

// perLayer lists the traced run's metrics in report order.
var perLayer = []struct{ name, unit string }{
	{"metrics.skew.calls", "count"}, {"metrics.skew.self_s", "s"},
	{"metrics.round.calls", "count"}, {"metrics.round.self_s", "s"},
	{"metrics.validity.calls", "count"}, {"metrics.validity.self_s", "s"},
	{"invariant.agreement.calls", "count"}, {"invariant.agreement.self_s", "s"},
	{"invariant.validity.calls", "count"}, {"invariant.validity.self_s", "s"},
	{"invariant.monotonicity.calls", "count"}, {"invariant.monotonicity.self_s", "s"},
	{"invariant.adjbound.calls", "count"}, {"invariant.adjbound.self_s", "s"},
	{"invariant.hier-agreement.calls", "count"}, {"invariant.hier-agreement.self_s", "s"},
	{"sim.self_s", "s"}, {"sim.ns_per_event", "ns"}, {"sim.events", "count"}, {"sim.queue_peak", "count"},
	{"sim.delay.calls", "count"}, {"sim.delay.self_s", "s"},
	{"core.recv_ordinary.calls", "count"}, {"core.recv_ordinary.self_s", "s"},
	{"core.recv_timer.calls", "count"}, {"core.recv_timer.self_s", "s"},
	{"faults.recv.calls", "count"}, {"faults.recv.self_s", "s"},
	{"faults.retime.calls", "count"}, {"faults.retime.self_s", "s"},
	{"faults.hook.calls", "count"}, {"faults.hook.self_s", "s"},
	{"hier.build_s", "s"}, {"hier.recv.calls", "count"}, {"hier.recv.self_s", "s"},
	{"hier.msgs_per_round", "count"}, {"hier.queue_peak", "count"},
	{"shard.windows", "count"}, {"shard.barriers", "count"}, {"shard.batched_windows", "count"},
	{"shard.busy_max_s", "s"}, {"shard.busy_mean_s", "s"}, {"shard.wait_s", "s"},
	{"exp.build_s", "s"}, {"runner.trial_s", "s"}, {"runner.busy_frac", "ratio"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_s", "s"},
	{"runtime.alloc_objects_per_op", "count"}, {"runtime.heap_live_peak_bytes", "B"},
	{"trace.overhead", "ratio"}, {"trace.unattributed_s", "s"}, {"trace.lane_s", "s"},
}

// layerValues turns one traced op's spans into per-layer values. In a
// sharded run a layer that runs on the shards is charged its time on the
// critical path (see windowClock); its calls count every shard.
func (t *tracer) layerValues(wallNs int64) map[string]float64 {
	var calls, self [numLayers]int64
	for l := layer(0); l < numLayers; l++ {
		calls[l] = t.main.calls(l)
		self[l] = t.main.self(l)
		for _, ln := range t.shardLanes {
			calls[l] += ln.calls(l)
			if t.window == nil {
				self[l] += ln.self(l)
			}
		}
	}
	v := map[string]float64{}
	var wait int64
	if w := t.window; w != nil {
		for l := range self {
			self[l] += w.crit[l]
		}
		self[layerSim] += w.engine - w.drained
		wait = w.wait
		v["shard.busy_max_s"] = secs(w.busyMax)
		v["shard.busy_mean_s"] = secs(w.busyMean)
		v["shard.wait_s"] = secs(wait)
	}
	for l := layer(0); l < numLayers; l++ {
		name := layerNames[l]
		switch l {
		case layerSim:
			v["sim.self_s"] = secs(self[l])
		case layerExpBuild, layerHierBuild:
			v[name+"_s"] = secs(self[l])
		default:
			v[name+".calls"] = float64(calls[l])
			v[name+".self_s"] = secs(self[l])
		}
	}
	if t.events > 0 {
		v["sim.ns_per_event"] = float64(self[layerSim]) / float64(t.events)
	}
	v["sim.events"] = float64(t.events)
	v["sim.queue_peak"] = float64(t.queuePeak)
	for k, x := range t.counters {
		v[k] = x
	}
	laneNs := t.laneNs
	if laneNs == 0 {
		laneNs = wallNs
	}
	attributed := wait
	for _, s := range self {
		attributed += s
	}
	v["trace.lane_s"] = secs(laneNs)
	v["trace.unattributed_s"] = secs(laneNs - attributed)
	return v
}

// layerCells writes out the traced op's (layer, parent layer) cells.
func (t *tracer) layerCells() []map[string]any {
	all := t.newLane()
	all.add(t.main)
	for _, ln := range t.shardLanes {
		all.add(ln)
	}
	var out []map[string]any
	for l := range all.agg {
		for p, c := range all.agg[l] {
			if c.calls == 0 {
				continue
			}
			parent := "-"
			if p < int(numLayers) {
				parent = layerNames[p]
			}
			out = append(out, map[string]any{
				"layer": layerNames[l], "parent": parent,
				"calls": c.calls, "total_s": secs(c.total), "self_s": secs(c.self),
			})
		}
	}
	return out
}

// measureTraced is the traced run: untraced and traced ops alternate, the
// traced ones report per-layer values, and each traced digest must equal
// the untraced one.
func measureTraced(w workload, rc runConfig) result {
	c := &checker{name: w.name, rc: rc}
	res := result{Metrics: map[string]metricValue{}, detail: map[string]any{}}
	_, inst, err := timeSetup(w, rc)
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.detail["failures"] = []string{err.Error()}
		return res
	}
	deadline := nanotime() + int64(rc.seconds*1e9)
	var ops []opRecord
	var traced []outcome
	var tracedErrs []error
	var untracedWalls, tracedWalls []float64
	sums := map[string]float64{}
	var cells []map[string]any
	for {
		t0 := nanotime()
		o, err := inst.op()
		uw := secs(nanotime() - t0)
		ops = append(ops, opRecord{wall: uw, out: o, err: err})
		untracedWalls = append(untracedWalls, uw)

		tr := newTracer()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t1 := nanotime()
		to, terr := inst.traced(tr)
		twNs := nanotime() - t1
		runtime.ReadMemStats(&m1)
		traced = append(traced, to)
		tracedErrs = append(tracedErrs, terr)
		tracedWalls = append(tracedWalls, secs(twNs))
		if terr == nil {
			for k, x := range tr.layerValues(twNs) {
				sums[k] += x
			}
			heap := tr.heapPeak.Load()
			if m1.HeapAlloc > heap {
				heap = m1.HeapAlloc
			}
			sums["runtime.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
			sums["runtime.gc_pause_s"] += secs(int64(m1.PauseTotalNs - m0.PauseTotalNs))
			sums["runtime.alloc_objects_per_op"] += float64(m1.Mallocs - m0.Mallocs)
			sums["runtime.heap_live_peak_bytes"] += float64(heap)
			cells = tr.layerCells()
		}
		pair := secs(nanotime() - t0)
		if nanotime()+int64(pair*1e9) > deadline {
			break
		}
	}
	ref, rerr := completeRef(inst, ops)
	c.ref = ref
	if rerr != nil {
		c.fail("%v", rerr)
	}
	for i, op := range ops {
		c.check("untraced", i, op.out, op.err)
	}
	ok := 0
	for i, o := range traced {
		c.check("traced", i, o, tracedErrs[i])
		if tracedErrs[i] == nil {
			ok++
		}
	}
	res.Attempted = len(ops) + len(traced) + boolInt(rerr != nil)
	res.Failed = c.failed
	res.Correct = c.failed == 0 && ref != nil
	res.detail["failures"] = c.failures
	res.detail["fail_frac"] = float64(res.Failed) / float64(res.Attempted)
	res.detail["untraced_wall_s_samples"] = untracedWalls
	res.detail["traced_wall_s_samples"] = tracedWalls
	res.detail["layers_last_traced_op"] = cells
	if ref != nil {
		res.detail["digest"] = ref.digest()
	}
	if ok == 0 {
		return res
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{sums[m.name] / float64(ok), m.unit}
	}
	res.Metrics["trace.overhead"] = metricValue{median(tracedWalls) / median(untracedWalls), "ratio"}
	return res
}
