package service

import (
	"sync"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/obsv"
)

// batch is one coalesced group of compatible jobs, the scheduler's unit
// of dispatch.
type batch struct {
	key    string
	jobs   []*job
	oldest time.Time // enqueue time of the batch's first job
}

// work returns the batch's solve work in vertices, the unit the fair
// queue charges tenants in.
func (b *batch) work() float64 {
	var w float64
	for _, j := range b.jobs {
		w += float64(j.stencil.Len())
	}
	return w
}

// batcher coalesces admitted jobs into batches behind two triggers: a
// batch flushes as soon as it reaches maxSize jobs, or when its oldest
// job has waited maxWait. One goroutine owns the pending table, so the
// trigger logic needs no locks; jobs arrive over a bounded channel and
// batches leave through the flush callback (the scheduler's enqueue).
//
// The flush path consults the service/batch-stall fault site, so a
// chaos schedule can model a stalled queue: a Stalling rule sleeps the
// batcher loop, delaying every pending batch and driving queued jobs
// into the deadline-shed path downstream.
type batcher struct {
	in      chan *job
	flush   func(*batch)
	maxSize int
	maxWait time.Duration

	metrics  *obsv.ServiceMetrics
	injector core.Injector

	wg sync.WaitGroup
}

// newBatcher builds a batcher delivering coalesced batches to flush;
// call start to run its loop and stop to drain it.
func newBatcher(maxSize int, maxWait time.Duration, buffer int, flush func(*batch),
	m *obsv.ServiceMetrics, inj core.Injector) *batcher {

	if maxSize < 1 {
		maxSize = 1
	}
	if buffer < 1 {
		buffer = 1
	}
	return &batcher{
		in: make(chan *job, buffer), flush: flush,
		maxSize: maxSize, maxWait: maxWait,
		metrics: m, injector: inj,
	}
}

// start launches the coalescing loop.
func (b *batcher) start() {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		b.run()
	}()
}

// stop closes the intake and waits for the loop to flush every pending
// batch. The caller must guarantee no further enqueue calls.
func (b *batcher) stop() {
	close(b.in)
	b.wg.Wait()
}

// enqueue hands a job to the coalescing loop without blocking; it
// reports false when the intake buffer is full (a backlogged batcher),
// in which case the caller sheds the job instead of queuing unboundedly.
func (b *batcher) enqueue(j *job) bool {
	select {
	case b.in <- j:
		return true
	default:
		return false
	}
}

// run is the coalescing loop: a pending table keyed by batch key and a
// single timer armed for the earliest max-wait expiry.
func (b *batcher) run() {
	pending := map[string]*batch{}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false

	rearm := func() {
		if armed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			armed = false
		}
		var earliest time.Time
		for _, bt := range pending {
			if earliest.IsZero() || bt.oldest.Before(earliest) {
				earliest = bt.oldest
			}
		}
		if earliest.IsZero() {
			return
		}
		d := time.Until(earliest.Add(b.maxWait))
		if d < 0 {
			d = 0
		}
		timer.Reset(d)
		armed = true
	}

	for {
		select {
		case j, ok := <-b.in:
			if !ok {
				for key, bt := range pending {
					delete(pending, key)
					b.doFlush(bt)
				}
				return
			}
			// Immediate mode: no coalescing window configured.
			if b.maxSize == 1 || b.maxWait <= 0 {
				b.doFlush(&batch{key: j.batchKey(), jobs: []*job{j}, oldest: j.enqueued})
				continue
			}
			key := j.batchKey()
			bt := pending[key]
			if bt == nil {
				bt = &batch{key: key, oldest: time.Now()}
				pending[key] = bt
			}
			bt.jobs = append(bt.jobs, j)
			if len(bt.jobs) >= b.maxSize {
				delete(pending, key)
				b.doFlush(bt)
			}
			rearm()
		case <-timer.C:
			armed = false
			now := time.Now()
			for key, bt := range pending {
				if now.Sub(bt.oldest) >= b.maxWait {
					delete(pending, key)
					b.doFlush(bt)
				}
			}
			rearm()
		}
	}
}

// doFlush records the batch's metrics and batch spans, consults the
// batch-stall fault site, and hands the batch downstream.
func (b *batcher) doFlush(bt *batch) {
	if b.injector != nil {
		// A Stalling rule sleeps here, delaying this and every pending
		// batch — the modeled "stalled queue" fault.
		b.injector.Inject(SiteBatchStall)
	}
	now := time.Now()
	b.metrics.Batches.Add(1)
	b.metrics.BatchSize.ObserveInt(int64(len(bt.jobs)))
	for _, j := range bt.jobs {
		b.metrics.BatchWaitSeconds.Observe(now.Sub(j.enqueued).Seconds())
		// Stamp the coalescing wait as a retroactive "batch" span and
		// mark the flush time for the dispatcher's "schedule" span (the
		// scheduler mutex orders this write against the worker's read).
		j.flushed = now
		j.tc.Observe("batch", j.enqueued, now.Sub(j.enqueued))
	}
	b.flush(bt)
}
