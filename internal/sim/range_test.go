package sim

import (
	"fmt"
	"testing"

	"repro/internal/clock"
)

// rangeN is the system size of the range fan-out differential: small enough
// to run every mode combination, and cut by 2 and 4 shards into blocks that
// several of the test ranges straddle.
const rangeN = 12

// rangeDelivery is one delivered (or, for the send hook, one sent) copy.
type rangeDelivery struct {
	at       clock.Real
	from, to ProcID
	kind     Kind
	tag      int
}

// rangeProc sends a fixed set of ranges every period, either as
// BroadcastRange fan-outs or as the equivalent Send loops, and logs what it
// receives (its own log, so a sharded run can record without a global
// observer).
type rangeProc struct {
	perCopy bool
	ranges  [][2]ProcID
	period  clock.Local
	rounds  int
	round   int
	log     []rangeDelivery
}

// rangesFor is process id's fan-out set: the whole system, a range
// straddling the 2- and 4-shard cuts, an empty range, a one-copy range, the
// process's 4-block, and the two ranges around itself (the discipline-relay
// shape).
func rangesFor(id ProcID) [][2]ProcID {
	lo := id / 4 * 4
	return [][2]ProcID{
		{0, rangeN}, {2, 7}, {3, 3}, {5, 6}, {lo, lo + 4}, {0, id}, {id + 1, rangeN},
	}
}

func (p *rangeProc) Receive(ctx *Context, m Message) {
	if m.Kind == KindOrdinary {
		p.log = append(p.log, rangeDelivery{at: m.DeliverAt, from: m.From, to: m.To, kind: m.Kind, tag: m.Payload.(int)})
		return
	}
	if p.round == p.rounds {
		return
	}
	p.round++
	for i, r := range p.ranges {
		tag := (int(ctx.ID())*100+p.round)*10 + i
		if p.perCopy {
			for q := r[0]; q < r[1]; q++ {
				ctx.Send(q, tag)
			}
		} else {
			ctx.BroadcastRange(r[0], r[1], tag)
		}
	}
	ctx.SetTimer(ctx.PhysNow()+p.period, nil)
}

// rangeAdv retimes copies by a pure function of the link — pinning a third
// of them to the early edge, which manufactures delivery-time ties — and
// records every copy its send hook sees.
type rangeAdv struct{ sends []rangeDelivery }

func (a *rangeAdv) Retime(v *AdversaryView, from, to ProcID, _ clock.Real, base float64) float64 {
	if (from+to)%3 == 0 {
		d, e := v.Bounds()
		return d - e
	}
	return base
}

func (a *rangeAdv) OnSend(_ *AdversaryView, m Message) {
	a.sends = append(a.sends, rangeDelivery{at: m.DeliverAt, from: m.From, to: m.To, kind: m.Kind, tag: m.Payload.(int)})
}

// rangeRun is one execution's observable outcome.
type rangeRun struct {
	popped     []rangeDelivery   // global pop order (sequential engines only)
	perProc    [][]rangeDelivery // each process's receive order
	hooks      []rangeDelivery   // send-hook order (adversary runs only)
	sent, lost int64
}

type rangeCase struct {
	delay     DelayModel
	channel   Channel
	scheduler Scheduler
	mode      BroadcastMode
	adversary bool
	shards    int // 0: sequential engine
}

func (c rangeCase) String() string {
	return fmt.Sprintf("delay=%T channel=%T sched=%d mode=%d adv=%v shards=%d",
		c.delay, c.channel, c.scheduler, c.mode, c.adversary, c.shards)
}

func runRangeCase(t *testing.T, c rangeCase, perCopy bool) rangeRun {
	t.Helper()
	procs := make([]Process, rangeN)
	rps := make([]*rangeProc, rangeN)
	clocks := make([]clock.Clock, rangeN)
	starts := make([]clock.Real, rangeN)
	drift := clock.ConstantDrift{RhoBound: 1e-5}
	for i := range procs {
		rps[i] = &rangeProc{perCopy: perCopy, ranges: rangesFor(ProcID(i)), period: 1e-3, rounds: 8}
		procs[i] = rps[i]
		clocks[i] = drift.Build(i, rangeN)
		starts[i] = clock.Real(i%3) * 1e-6 // simultaneous starts make ties
	}
	cfg := Config{
		Procs: procs, Clocks: clocks, StartAt: starts,
		Delay: c.delay, Channel: c.channel, Seed: 11,
		Scheduler: c.scheduler, Broadcast: c.mode,
	}
	var adv *rangeAdv
	if c.adversary {
		adv = &rangeAdv{}
		cfg.Adversary = adv
	}
	var out rangeRun
	const horizon = 0.02
	if c.shards > 0 {
		se, err := NewSharded(cfg, c.shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := se.Run(horizon); err != nil {
			t.Fatal(err)
		}
		out.sent, out.lost = se.MessagesSent(), se.MessagesLost()
	} else {
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng.Observe(observerFunc(func(_ *Engine, m Message) {
			if m.Kind == KindOrdinary {
				out.popped = append(out.popped, rangeDelivery{at: m.DeliverAt, from: m.From, to: m.To, kind: m.Kind, tag: m.Payload.(int)})
			}
		}))
		if err := eng.Run(horizon); err != nil {
			t.Fatal(err)
		}
		out.sent, out.lost = eng.MessagesSent(), eng.MessagesLost()
	}
	for _, p := range rps {
		if p.round != p.rounds {
			t.Fatalf("%v: process finished %d of %d rounds", c, p.round, p.rounds)
		}
		out.perProc = append(out.perProc, p.log)
	}
	if adv != nil {
		out.hooks = adv.sends
	}
	return out
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []rangeDelivery) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func compareRangeRuns(t *testing.T, c rangeCase, what string, got, want rangeRun) {
	t.Helper()
	if got.sent != want.sent || got.lost != want.lost {
		t.Errorf("%v: %s sent/lost %d/%d, want %d/%d", c, what, got.sent, got.lost, want.sent, want.lost)
	}
	if i := firstDiff(got.popped, want.popped); i >= 0 {
		t.Errorf("%v: %s pop order diverges at delivery %d of %d/%d", c, what, i, len(got.popped), len(want.popped))
	}
	if i := firstDiff(got.hooks, want.hooks); i >= 0 {
		t.Errorf("%v: %s send-hook order diverges at copy %d of %d/%d", c, what, i, len(got.hooks), len(want.hooks))
	}
	for p := range want.perProc {
		if i := firstDiff(got.perProc[p], want.perProc[p]); i >= 0 {
			t.Errorf("%v: %s process %d receive order diverges at %d of %d/%d", c, what, p, i, len(got.perProc[p]), len(want.perProc[p]))
		}
	}
}

// TestBroadcastRangeMatchesSends is the group-broadcast differential: a
// process fanning out with BroadcastRange and one sending the same range
// copy by copy, in id order, must produce the identical execution — every
// (DeliverAt, From, To) in the same pop order, the same sent/lost counts,
// the same send-hook sequence — across eager and lazy materialization, the
// heap and calendar schedulers, a lossy channel, an adversary that retimes
// and observes sends, and sharded engines whose block cuts the ranges
// straddle. Ranges include the full system, an empty range and a one-copy
// range.
func TestBroadcastRangeMatchesSends(t *testing.T) {
	delays := []DelayModel{
		UniformDelay{Delta: 4e-4, Eps: 1e-4},
		ConstantDelay{Delta: 4e-4}, // every copy of one Receive ties
	}
	channels := []Channel{nil, NewLossyLinks(
		Link{From: 1, To: 5}, Link{From: 4, To: 3}, Link{From: 2, To: 6},
		Link{From: 6, To: 2}, Link{From: 0, To: 11},
	)}
	modes := []BroadcastMode{BroadcastEager, BroadcastLazy}
	var cases []rangeCase
	for _, d := range delays {
		for _, ch := range channels {
			for _, b := range modes {
				for _, s := range []Scheduler{SchedulerHeap, SchedulerCalendar} {
					for _, adv := range []bool{false, true} {
						cases = append(cases, rangeCase{delay: d, channel: ch, scheduler: s, mode: b, adversary: adv})
					}
				}
				for _, k := range []int{1, 2, 4} {
					cases = append(cases, rangeCase{delay: d, channel: ch, mode: b, shards: k})
				}
			}
		}
	}
	for _, c := range cases {
		want := runRangeCase(t, c, true)
		if want.sent == 0 || (c.channel != nil && want.lost == 0) {
			t.Fatalf("%v: degenerate workload (sent %d, lost %d)", c, want.sent, want.lost)
		}
		got := runRangeCase(t, c, false)
		compareRangeRuns(t, c, "BroadcastRange vs Send loop", got, want)
	}
}

// TestBroadcastRangeShardInvariant: a range workload's execution is the same
// for every shard count, as every sharded execution must be — the single
// send index a fan-out takes orders its copies independently of where the
// shard cuts fall.
func TestBroadcastRangeShardInvariant(t *testing.T) {
	for _, b := range []BroadcastMode{BroadcastEager, BroadcastLazy} {
		ref := rangeCase{delay: UniformDelay{Delta: 4e-4, Eps: 1e-4}, mode: b, shards: 1}
		want := runRangeCase(t, ref, false)
		for _, k := range []int{2, 3, 4} {
			c := ref
			c.shards = k
			compareRangeRuns(t, c, "vs one shard", runRangeCase(t, c, false), want)
		}
	}
}

// TestBroadcastRangeBounds: a range outside [0, n) is a programming error
// and panics; an empty range at either end is legal and sends nothing.
func TestBroadcastRangeBounds(t *testing.T) {
	eng := lazyTestEngine(t, 4, SchedulerAuto, BroadcastAuto, nil, nil)
	eng.BroadcastRange(0, 0, 0, nil)
	eng.BroadcastRange(0, 4, 4, nil)
	if eng.MessagesSent() != 0 {
		t.Fatalf("empty ranges sent %d copies", eng.MessagesSent())
	}
	for _, r := range [][2]ProcID{{-1, 2}, {2, 5}, {3, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BroadcastRange(%d, %d) on n=4 did not panic", r[0], r[1])
				}
			}()
			eng.BroadcastRange(0, r[0], r[1], nil)
		}()
	}
}
