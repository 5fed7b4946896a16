package sim

import "repro/internal/clock"

// This file implements the delivery pipeline: every ordinary message copy —
// unicast or batched (range) broadcast fan-out — flows through an ordered
// chain of typed stages before it is enqueued:
//
//	DelayStage      sample the copy's base delay from the workload's
//	                DelayModel (batched via SampleAll on a full broadcast)
//	AdversaryStage  give a registered adaptive adversary one clamped
//	                retiming pass (inactive — a nil-check — when no
//	                adversary is installed)
//	RouteStage      map the base delay to a delivery time, or drop the
//	                copy (FullMesh/Ether/LossyLinks loss and contention)
//
// The chain replaces the closed sample→route→enqueue sequence that used to
// live inline in Engine.send and Engine.Broadcast. Each stage is a concrete
// struct resolved once at engine construction (interface capabilities such
// as BatchDelayModel are classified at build time, not per event), so with
// no adversary installed the pipeline compiles down to exactly the old fast
// path: the same calls in the same order with one extra nil comparison per
// send — the steady state stays allocation-free and every existing
// execution replays byte-identically.
//
// The AdversaryStage is the refactor's point: it is the seam through which
// the lower-bound experiments retime deliveries inside the [δ−ε, δ+ε]
// uncertainty window (see adversary.go for the controller, the omniscient
// read view, and the clamp contract).

// DelayStage samples per-copy base delays. It wraps the workload's
// DelayModel, with the batched SampleAll fast path classified once at
// construction (nil batch means the broadcast path falls back to per-copy
// Sample calls — same rng draws, same order).
type DelayStage struct {
	model DelayModel
	batch BatchDelayModel
}

// newDelayStage classifies the model's capabilities once.
func newDelayStage(model DelayModel) DelayStage {
	s := DelayStage{model: model}
	if b, ok := model.(BatchDelayModel); ok {
		s.batch = b
	}
	return s
}

// Model returns the wrapped delay model.
func (s *DelayStage) Model() DelayModel { return s.model }

// Bounds returns the model's (δ, ε).
func (s *DelayStage) Bounds() (delta, eps float64) { return s.model.Bounds() }

// sample draws one copy's base delay.
func (s *DelayStage) sample(from, to ProcID, at clock.Real, rng *RNG) float64 {
	return s.model.Sample(from, to, at, rng)
}

// sampleRange fills out[i] with the delay of the copy to process lo+i,
// drawing exactly the stream len(out) per-copy sample calls in pid order
// would. Only the full fan-out (lo = 0, all n processes) goes through the
// model's batched SampleAll: BatchDelayModel's contract covers the whole
// system, so a partial range samples per copy.
func (s *DelayStage) sampleRange(from, lo ProcID, n int, at clock.Real, rng *RNG, out []float64) {
	if s.batch != nil && lo == 0 && len(out) == n {
		s.batch.SampleAll(from, n, at, rng, out)
		return
	}
	for i := range out {
		out[i] = s.model.Sample(from, lo+ProcID(i), at, rng)
	}
}

// RouteStage maps base delays to delivery times (or losses). It wraps the
// workload's Channel and owns the one batched fan-out loop: the per-channel
// RouteAll implementations that used to be copy-pasted across FullMesh,
// Ether and LossyLinks are gone — lossy/collision logic lives only in each
// channel's Route, and this stage loops it. The reliable full mesh keeps a
// dispatch-free inline path (classified once at construction) because it is
// the no-channel default every benchmark regime runs through.
type RouteStage struct {
	channel Channel
	mesh    bool // channel is the reliable FullMesh: route inline
}

// newRouteStage classifies the channel once.
func newRouteStage(ch Channel) RouteStage {
	_, mesh := ch.(FullMesh)
	return RouteStage{channel: ch, mesh: mesh}
}

// Channel returns the wrapped channel.
func (s *RouteStage) Channel() Channel { return s.channel }

// route maps one copy's base delay to a delivery time, or reports it lost.
func (s *RouteStage) route(from, to ProcID, sentAt clock.Real, base float64) (clock.Real, bool) {
	if s.mesh {
		return sentAt + clock.Real(base), true
	}
	return s.channel.Route(from, to, sentAt, base)
}

// routeRange routes the copy to every process lo+i in pid order, evolving
// any channel state (e.g. Ether's per-receiver contention bookkeeping)
// exactly as len(base) successive Route calls would.
func (s *RouteStage) routeRange(from, lo ProcID, sentAt clock.Real, base []float64, at []clock.Real, ok []bool) {
	if s.mesh {
		for i := range base {
			at[i] = sentAt + clock.Real(base[i])
			ok[i] = true
		}
		return
	}
	for i := range base {
		at[i], ok[i] = s.channel.Route(from, lo+ProcID(i), sentAt, base[i])
	}
}

// AdversaryStage is the optional interceptor between delay sampling and
// routing: when a controller is installed it offers the adversary one
// retiming pass per copy, clamped to the model's [δ−ε, δ+ε] envelope. The
// zero value (nil controller) is inactive and costs one nil comparison.
type AdversaryStage struct {
	ctl *AdversaryController
}

// active reports whether an adversary can retime deliveries.
func (s *AdversaryStage) active() bool { return s.ctl != nil }

// retime gives the adversary its clamped pass over one copy.
func (s *AdversaryStage) retime(from, to ProcID, sentAt clock.Real, base float64) float64 {
	return s.ctl.retime(from, to, sentAt, base)
}

// Pipeline is the ordered interceptor chain every ordinary message copy
// flows through: DelayStage → AdversaryStage → RouteStage. The engine owns
// one pipeline, assembled at New from the validated configuration.
type Pipeline struct {
	Delay     DelayStage
	Adversary AdversaryStage
	Route     RouteStage
}

// newPipeline assembles the chain. adv may be nil (the common case): the
// adversary stage then short-circuits to the legacy two-stage path.
func newPipeline(model DelayModel, ch Channel, ctl *AdversaryController) Pipeline {
	return Pipeline{
		Delay:     newDelayStage(model),
		Adversary: AdversaryStage{ctl: ctl},
		Route:     newRouteStage(ch),
	}
}

// unicast runs one copy through the full chain, returning its delivery time
// or reporting it lost.
func (p *Pipeline) unicast(from, to ProcID, sentAt clock.Real, rng *RNG) (clock.Real, bool) {
	base := p.Delay.sample(from, to, sentAt, rng)
	if p.Adversary.active() {
		base = p.Adversary.retime(from, to, sentAt, base)
	}
	return p.Route.route(from, to, sentAt, base)
}

// fanOut runs one fan-out to the processes lo…lo+len(base)−1 through the
// chain using the engine's reusable per-broadcast buffers: one delay-
// sampling pass (batched for a full broadcast), one (optional) adversary
// pass per copy, one routing pass — every pass in pid order.
func (p *Pipeline) fanOut(from, lo ProcID, n int, sentAt clock.Real, rng *RNG, base []float64, at []clock.Real, ok []bool) {
	p.Delay.sampleRange(from, lo, n, sentAt, rng, base)
	if p.Adversary.active() {
		for i := range base {
			base[i] = p.Adversary.retime(from, lo+ProcID(i), sentAt, base[i])
		}
	}
	p.Route.routeRange(from, lo, sentAt, base, at, ok)
}
