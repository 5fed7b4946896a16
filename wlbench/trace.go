package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
)

// The traced run attributes an op's time to the repository's layers by
// wrapping, from the outside, every value the engine calls back into: the
// processes, the delay model, the adversary and the observers. Each wrapper
// opens a span on the lane (the span stack of one goroutine's work) it was
// bound to and closes it when the wrapped call returns. Spans are folded
// into per-(layer, parent layer) cells as they close; nothing is kept per
// call.

// layer names one traced boundary of the repository.
type layer uint8

const (
	layerSim layer = iota
	layerDelay
	layerCoreOrdinary
	layerCoreTimer
	layerFaultsRecv
	layerFaultsRetime
	layerFaultsHook
	layerHierRecv
	layerMetricsSkew
	layerMetricsRound
	layerMetricsValidity
	layerInvAgreement
	layerInvValidity
	layerInvMonotonicity
	layerInvAdjBound
	layerInvHierAgreement
	layerExpBuild
	layerHierBuild
	numLayers
)

var layerNames = [numLayers]string{
	"sim", "sim.delay", "core.recv_ordinary", "core.recv_timer",
	"faults.recv", "faults.retime", "faults.hook", "hier.recv",
	"metrics.skew", "metrics.round", "metrics.validity",
	"invariant.agreement", "invariant.validity", "invariant.monotonicity",
	"invariant.adjbound", "invariant.hier-agreement",
	"exp.build", "hier.build",
}

// noParent is the parent index of a span opened on an empty stack.
const noParent = numLayers

var epoch = time.Now()

// nanotime is monotonic nanoseconds since process start.
func nanotime() int64 { return int64(time.Since(epoch)) }

// cell aggregates every span of one layer under one parent layer.
type cell struct {
	calls       int64
	total, self int64 // nanoseconds
}

type frame struct {
	l            layer
	start, child int64
}

// heapPollEvery is how many closed spans a lane lets pass between two reads
// of the heap size.
const heapPollEvery = 1 << 14

// lane is the span stack of work that runs on one goroutine at a time. A
// lane is never used by two goroutines at once; the engine's own
// synchronization orders the hand-offs between them (shard barriers, the
// runner's join).
type lane struct {
	stack []frame
	agg   [numLayers][numLayers + 1]cell

	// Sharded runs: self time closed since the current window opened, and
	// when the lane's last span closed.
	winSelf  [numLayers]int64
	lastExit int64

	polls    int
	heapPeak *atomic.Uint64
	heapRead []metrics.Sample
}

func newLane(heapPeak *atomic.Uint64) *lane {
	return &lane{
		stack:    make([]frame, 0, 8),
		heapPeak: heapPeak,
		heapRead: []metrics.Sample{{Name: heapObjectsMetric}},
	}
}

const heapObjectsMetric = "/memory/classes/heap/objects:bytes"

func (ln *lane) enter(l layer) {
	ln.stack = append(ln.stack, frame{l: l, start: nanotime()})
}

func (ln *lane) exit() {
	t := nanotime()
	top := len(ln.stack) - 1
	f := ln.stack[top]
	ln.stack = ln.stack[:top]
	d := t - f.start
	parent := noParent
	if top > 0 {
		parent = ln.stack[top-1].l
		ln.stack[top-1].child += d
	}
	c := &ln.agg[f.l][parent]
	c.calls++
	c.total += d
	c.self += d - f.child
	ln.winSelf[f.l] += d - f.child
	ln.lastExit = t
	if ln.polls++; ln.polls == heapPollEvery {
		ln.polls = 0
		ln.pollHeap()
	}
}

// pollHeap raises the lane's shared heap high-water mark to the current
// size of allocated heap objects (live and not yet swept).
func (ln *lane) pollHeap() {
	metrics.Read(ln.heapRead)
	if ln.heapRead[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := ln.heapRead[0].Value.Uint64()
	for {
		old := ln.heapPeak.Load()
		if v <= old || ln.heapPeak.CompareAndSwap(old, v) {
			return
		}
	}
}

// add folds another lane's aggregate into ln.
func (ln *lane) add(o *lane) {
	for l := range ln.agg {
		for p := range ln.agg[l] {
			a, b := &ln.agg[l][p], &o.agg[l][p]
			a.calls += b.calls
			a.total += b.total
			a.self += b.self
		}
	}
}

// calls returns the number of closed spans of layer l under any parent.
func (ln *lane) calls(l layer) int64 {
	var n int64
	for _, c := range ln.agg[l] {
		n += c.calls
	}
	return n
}

// self returns layer l's self time in nanoseconds under any parent.
func (ln *lane) self(l layer) int64 {
	var n int64
	for _, c := range ln.agg[l] {
		n += c.self
	}
	return n
}

// windowClock splits a sharded run's wall time along its critical path.
// The engine drains each lookahead window on all shards in parallel and
// then, single-threaded, fires the samplers at the window's cut. For every
// window the shard whose last protocol step ended latest is the critical
// one: its child spans are the layers' share of the window, the rest of its
// busy time (window open to its last step) is engine work, and the window's
// remaining wall time — barrier, worker spawn, exchange — is shard wait.
type windowClock struct {
	shards []*lane
	open   int64 // when the current window opened

	crit                  [numLayers]int64
	engine, wait, drained int64
	busyMax, busyMean     int64
}

func (w *windowClock) start() { w.open = nanotime() }

// cut closes the window that is open; the first sampler of a cut calls it
// on entry, before any sampler work.
func (w *windowClock) cut() {
	t := nanotime()
	var best *lane
	bestBusy, sumBusy := int64(-1), int64(0)
	for _, ln := range w.shards {
		busy := int64(0)
		if ln.lastExit > w.open {
			busy = ln.lastExit - w.open
		}
		sumBusy += busy
		if busy > bestBusy {
			best, bestBusy = ln, busy
		}
	}
	children := int64(0)
	for l, v := range best.winSelf {
		w.crit[l] += v
		children += v
	}
	for _, ln := range w.shards {
		ln.winSelf = [numLayers]int64{}
	}
	w.engine += bestBusy - children
	w.wait += t - w.open - bestBusy
	w.drained += t - w.open
	w.busyMax += bestBusy
	w.busyMean += sumBusy / int64(len(w.shards))
}

// procShim times a process's transitions: ordinary deliveries under one
// layer, START and TIMER interrupts under another.
type procShim struct {
	inner           sim.Process
	ln              *lane
	ordinary, other layer
}

func (p *procShim) Receive(ctx *sim.Context, m sim.Message) {
	l := p.other
	if m.Kind == sim.KindOrdinary {
		l = p.ordinary
	}
	p.ln.enter(l)
	p.inner.Receive(ctx, m)
	p.ln.exit()
}

// corrProcShim keeps the wrapped process's CorrHolder capability, which
// the engine and the recorders use to read its local time.
type corrProcShim struct {
	procShim
	h sim.CorrHolder
}

func (p *corrProcShim) Corr() clock.Local { return p.h.Corr() }

func wrapProc(p sim.Process, ln *lane, ordinary, other layer) sim.Process {
	s := procShim{inner: p, ln: ln, ordinary: ordinary, other: other}
	if h, ok := p.(sim.CorrHolder); ok {
		return &corrProcShim{procShim: s, h: h}
	}
	return &s
}

// delayShim times the delay stage. lanes maps a sender to the lane its
// sends run on.
type delayShim struct {
	inner sim.DelayModel
	lanes []*lane
}

func (d *delayShim) Sample(from, to sim.ProcID, at clock.Real, rng *sim.RNG) float64 {
	ln := d.lanes[from]
	ln.enter(layerDelay)
	v := d.inner.Sample(from, to, at, rng)
	ln.exit()
	return v
}

func (d *delayShim) Bounds() (float64, float64) { return d.inner.Bounds() }

// batchDelayShim keeps the BatchDelayModel fast path of the wrapped model.
type batchDelayShim struct {
	delayShim
	batch sim.BatchDelayModel
}

func (d *batchDelayShim) SampleAll(from sim.ProcID, n int, at clock.Real, rng *sim.RNG, out []float64) {
	ln := d.lanes[from]
	ln.enter(layerDelay)
	d.batch.SampleAll(from, n, at, rng, out)
	ln.exit()
}

func wrapDelay(m sim.DelayModel, lanes []*lane) sim.DelayModel {
	s := delayShim{inner: m, lanes: lanes}
	if b, ok := m.(sim.BatchDelayModel); ok {
		return &batchDelayShim{delayShim: s, batch: b}
	}
	return &s
}

// advShim times an adaptive adversary's retiming pass; the hook shims time
// its observation hooks. wrapAdversary keeps exactly the hooks the wrapped
// adversary implements, so the engine's controller dispatches the same ones.
type advShim struct {
	inner sim.Adversary
	ln    *lane
}

func (a *advShim) Retime(v *sim.AdversaryView, from, to sim.ProcID, sentAt clock.Real, base float64) float64 {
	a.ln.enter(layerFaultsRetime)
	d := a.inner.Retime(v, from, to, sentAt, base)
	a.ln.exit()
	return d
}

type sendHookShim struct {
	h  sim.SendHook
	ln *lane
}

func (s sendHookShim) OnSend(v *sim.AdversaryView, m sim.Message) {
	s.ln.enter(layerFaultsHook)
	s.h.OnSend(v, m)
	s.ln.exit()
}

type receiveHookShim struct {
	h  sim.ReceiveHook
	ln *lane
}

func (r receiveHookShim) OnReceive(v *sim.AdversaryView, m sim.Message) {
	r.ln.enter(layerFaultsHook)
	r.h.OnReceive(v, m)
	r.ln.exit()
}

func wrapAdversary(a sim.Adversary, ln *lane) sim.Adversary {
	base := &advShim{inner: a, ln: ln}
	sh, send := a.(sim.SendHook)
	rh, recv := a.(sim.ReceiveHook)
	switch {
	case send && recv:
		return &struct {
			*advShim
			sendHookShim
			receiveHookShim
		}{base, sendHookShim{sh, ln}, receiveHookShim{rh, ln}}
	case send:
		return &struct {
			*advShim
			sendHookShim
		}{base, sendHookShim{sh, ln}}
	case recv:
		return &struct {
			*advShim
			receiveHookShim
		}{base, receiveHookShim{rh, ln}}
	}
	return base
}

// samplerShim times a Sampler. In a sharded run the first sampler of a cut
// closes the window on the window clock before it samples.
type samplerShim struct {
	s        sim.Sampler
	ln       *lane
	l        layer
	cutFirst *windowClock
}

func (o *samplerShim) Sample(e *sim.Engine, pre bool) {
	if o.cutFirst != nil {
		o.cutFirst.cut()
	}
	o.ln.enter(o.l)
	o.s.Sample(e, pre)
	o.ln.exit()
}

// samplerLastShim is the last sampler of a sharded cut: the next window
// opens when it returns.
type samplerLastShim struct {
	samplerShim
	w *windowClock
}

func (o *samplerLastShim) Sample(e *sim.Engine, pre bool) {
	o.samplerShim.Sample(e, pre)
	o.w.start()
}

type sinkShim struct {
	a  sim.AnnotationSink
	ln *lane
	l  layer
}

func (o *sinkShim) OnAnnotation(e *sim.Engine, a sim.Annotation) {
	o.ln.enter(o.l)
	o.a.OnAnnotation(e, a)
	o.ln.exit()
}

// wrapObserver returns a shim with exactly the observer capabilities of o.
// The benchmark wraps no per-delivery observers.
func wrapObserver(o sim.Observer, ln *lane, l layer) sim.Observer {
	s, isSampler := o.(sim.Sampler)
	a, isSink := o.(sim.AnnotationSink)
	if _, ok := o.(sim.DeliveryObserver); ok {
		panic("wlbench: no shim for per-delivery observers")
	}
	switch {
	case isSampler && isSink:
		return &struct {
			*samplerShim
			*sinkShim
		}{&samplerShim{s: s, ln: ln, l: l}, &sinkShim{a: a, ln: ln, l: l}}
	case isSampler:
		return &samplerShim{s: s, ln: ln, l: l}
	case isSink:
		return &sinkShim{a: a, ln: ln, l: l}
	}
	panic("wlbench: observer implements no observer interface")
}

// wrapCutSamplers wraps the samplers of a sharded run in registration
// order, making the first close each window and the last open the next.
func wrapCutSamplers(ss []sim.Sampler, ls []layer, ln *lane, w *windowClock) []sim.Observer {
	out := make([]sim.Observer, len(ss))
	for i, s := range ss {
		sh := samplerShim{s: s, ln: ln, l: ls[i]}
		if i == 0 {
			sh.cutFirst = w
		}
		if i == len(ss)-1 {
			out[i] = &samplerLastShim{samplerShim: sh, w: w}
			continue
		}
		out[i] = &sh
	}
	return out
}
