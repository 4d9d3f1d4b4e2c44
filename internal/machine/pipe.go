package machine

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sync"
)

// The lag bound: the front end runs at most batchesInFlight batches of
// batchEvents events ahead of the back end, the batch it is filling
// included.
const (
	batchEvents     = 4096
	batchesInFlight = 4
)

// batch is a run of events handed to the back end in one piece.
type batch struct {
	n int
	// fault is the back-end panic recovered, set on the batch it happened
	// in and on every batch the back end returns after.
	fault *backPanic
	ev    [batchEvents]event
}

// lane is the batches and channels of one running Overlap. Lanes are
// pooled process-wide, so a campaign allocates one per concurrent unit,
// not one per machine or per unit.
type lane struct {
	batches [batchesInFlight]batch
	// full carries filled batches to the back end, and a nil batch to
	// stop it; free carries them back, and the nil batch last. Each holds
	// batchesInFlight, as many batches as exist, so no send blocks.
	full, free chan *batch
}

// sideBack is the profile label the back end's goroutine adds to its
// unit's labels.
var sideBack = pprof.Labels("side", "back")

// lanePool is the process-wide pool of lanes.
type lanePool struct {
	mu sync.Mutex
	//atlint:guardedby mu
	free []*lane
}

var lanes lanePool

func (lp *lanePool) take() *lane {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if n := len(lp.free); n > 0 {
		l := lp.free[n-1]
		lp.free = lp.free[:n-1]
		return l
	}
	return &lane{full: make(chan *batch, batchesInFlight), free: make(chan *batch, batchesInFlight)}
}

func (lp *lanePool) put(l *lane) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.free = append(lp.free, l)
}

// pipe is the front end's side of a running Overlap. Between Overlaps
// cur is nil and every event applies inline.
type pipe struct {
	lane *lane
	// cur is the batch being filled; spare holds the other batches the
	// front end owns, and out counts those the back end owns.
	cur   *batch
	spare []*batch
	out   int
}

// start launches the back end's goroutine over b.
func (p *pipe) start(ctx context.Context, b *backEnd) {
	p.lane = lanes.take()
	p.spare = p.spare[:0]
	for i := range p.lane.batches {
		p.lane.batches[i].n, p.lane.batches[i].fault = 0, nil
		p.spare = append(p.spare, &p.lane.batches[i])
	}
	p.cur = p.pop()
	p.out = 0
	go runBack(pprof.WithLabels(ctx, sideBack), b, p.lane)
}

// runBack is the back end's goroutine: it applies each batch of l and
// returns it. After a panic it only returns batches, marked with the
// panic, so the front end never blocks and re-raises the panic when the
// batch comes back.
func runBack(ctx context.Context, b *backEnd, l *lane) {
	pprof.SetGoroutineLabels(ctx)
	var fault *backPanic
	for bt := range l.full {
		if bt == nil {
			l.free <- nil
			return
		}
		if fault == nil {
			fault = applyBatch(b, bt)
		}
		bt.n, bt.fault = 0, fault
		l.free <- bt
	}
}

// backPanic is a back-end panic as the front end re-raises it: the
// recovered value and the back end's goroutine stack where it was
// raised, which the front end's own stack does not show.
type backPanic struct {
	value any
	stack []byte
}

// Error is the original panic's message followed by the back end's
// stack, so a crash report shows where the back end failed.
func (p *backPanic) Error() string {
	return fmt.Sprintf("%v\n\nraised on the timing back end's goroutine:\n%s", p.value, p.stack)
}

// applyBatch applies one batch and returns the panic it recovered, nil
// if none.
func applyBatch(b *backEnd, bt *batch) (fault *backPanic) {
	defer func() {
		if r := recover(); r != nil {
			fault = &backPanic{value: r, stack: debug.Stack()}
		}
	}()
	for _, e := range bt.ev[:bt.n] {
		b.apply(e)
	}
	return nil
}

func (p *pipe) pop() *batch {
	n := len(p.spare)
	bt := p.spare[n-1]
	p.spare = p.spare[:n-1]
	return bt
}

// take receives one batch back from the back end, re-raising its panic
// as a *backPanic.
func (p *pipe) take() *batch {
	bt := <-p.lane.free
	p.out--
	if bt.fault != nil {
		panic(bt.fault)
	}
	return bt
}

// send hands the current batch to the back end.
func (p *pipe) send() {
	p.lane.full <- p.cur
	p.out++
	p.cur = nil
}

// handoff sends the full current batch and starts filling another, waiting
// for the back end to return one when the front end has none spare.
func (p *pipe) handoff() {
	p.send()
	if len(p.spare) > 0 {
		p.cur = p.pop()
		return
	}
	p.cur = p.take()
}

// drain sends the current batch if it holds events and waits until the
// back end has returned every batch.
func (p *pipe) drain() {
	if p.cur.n > 0 {
		p.send()
	}
	for p.out > 0 {
		p.spare = append(p.spare, p.take())
	}
	if p.cur == nil {
		p.cur = p.pop()
	}
}

// stop ends the back end's goroutine and returns once it has exited. On
// the normal path the queue is already drained; when the front end is
// panicking, the batches still queued are applied (or, after a back-end
// panic, skipped) first, and the batch being filled is dropped. The
// front end never holds fewer than one batch outside take, so the stop
// marker always fits in the full channel.
func (p *pipe) stop() {
	p.lane.full <- nil
	for bt := range p.lane.free {
		if bt == nil {
			break
		}
	}
	lanes.put(p.lane)
	p.lane, p.cur, p.out = nil, nil, 0
	p.spare = p.spare[:0]
}
