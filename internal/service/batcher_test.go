package service

import (
	"fmt"
	"testing"
	"time"

	"stencilivc/internal/grid"
	"stencilivc/internal/obsv"
)

// testGrid builds an n×n 9-pt instance with small varied weights.
func testGrid(t testing.TB, n int) grid.Stencil {
	t.Helper()
	w := make([]int64, n*n)
	for i := range w {
		w[i] = int64(i%7 + 1)
	}
	g, err := grid.FromWeights2D(n, n, w)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testJob builds a job for batcher/scheduler unit tests.
func testJob(t testing.TB, id, tenant string, g grid.Stencil) *job {
	t.Helper()
	return newJob(id, tenant, "GLL", g, time.Time{})
}

// collectBatch waits for one flushed batch.
func collectBatch(t *testing.T, ch <-chan *batch) *batch {
	t.Helper()
	select {
	case bt := <-ch:
		return bt
	case <-time.After(5 * time.Second):
		t.Fatal("no batch flushed within 5s")
		return nil
	}
}

func TestBatcherSizeTrigger(t *testing.T) {
	flushed := make(chan *batch, 8)
	b := newBatcher(3, time.Hour, 16, func(bt *batch) { flushed <- bt },
		obsv.NewServiceMetrics(nil), nil)
	b.start()
	defer b.stop()
	g := testGrid(t, 2)
	for i := 0; i < 3; i++ {
		if !b.enqueue(testJob(t, fmt.Sprintf("j%d", i), "t", g)) {
			t.Fatalf("enqueue %d refused", i)
		}
	}
	// maxWait is an hour, so only the size trigger can flush this.
	bt := collectBatch(t, flushed)
	if len(bt.jobs) != 3 {
		t.Fatalf("size-triggered batch has %d jobs, want 3", len(bt.jobs))
	}
}

func TestBatcherMaxWaitTrigger(t *testing.T) {
	flushed := make(chan *batch, 8)
	b := newBatcher(100, 10*time.Millisecond, 16, func(bt *batch) { flushed <- bt },
		obsv.NewServiceMetrics(nil), nil)
	b.start()
	defer b.stop()
	g := testGrid(t, 2)
	b.enqueue(testJob(t, "j0", "t", g))
	b.enqueue(testJob(t, "j1", "t", g))
	bt := collectBatch(t, flushed)
	if len(bt.jobs) != 2 {
		t.Fatalf("wait-triggered batch has %d jobs, want 2", len(bt.jobs))
	}
}

func TestBatcherKeyPartition(t *testing.T) {
	flushed := make(chan *batch, 8)
	b := newBatcher(100, 10*time.Millisecond, 16, func(bt *batch) { flushed <- bt },
		obsv.NewServiceMetrics(nil), nil)
	b.start()
	defer b.stop()
	g := testGrid(t, 2)
	b.enqueue(testJob(t, "j0", "alpha", g))
	b.enqueue(testJob(t, "j1", "beta", g))
	b1, b2 := collectBatch(t, flushed), collectBatch(t, flushed)
	if b1.key == b2.key {
		t.Fatalf("different tenants coalesced into one key %q", b1.key)
	}
	if len(b1.jobs) != 1 || len(b2.jobs) != 1 {
		t.Fatalf("batch sizes %d/%d, want 1/1", len(b1.jobs), len(b2.jobs))
	}
}

func TestBatcherImmediateMode(t *testing.T) {
	flushed := make(chan *batch, 8)
	b := newBatcher(1, time.Hour, 16, func(bt *batch) { flushed <- bt },
		obsv.NewServiceMetrics(nil), nil)
	b.start()
	defer b.stop()
	g := testGrid(t, 2)
	b.enqueue(testJob(t, "j0", "t", g))
	bt := collectBatch(t, flushed)
	if len(bt.jobs) != 1 {
		t.Fatalf("immediate-mode batch has %d jobs, want 1", len(bt.jobs))
	}
}

func TestBatcherStopFlushesPending(t *testing.T) {
	flushed := make(chan *batch, 8)
	b := newBatcher(100, time.Hour, 16, func(bt *batch) { flushed <- bt },
		obsv.NewServiceMetrics(nil), nil)
	b.start()
	g := testGrid(t, 2)
	b.enqueue(testJob(t, "j0", "t", g))
	b.enqueue(testJob(t, "j1", "t", g))
	b.stop()
	bt := collectBatch(t, flushed)
	if len(bt.jobs) != 2 {
		t.Fatalf("drain batch has %d jobs, want 2", len(bt.jobs))
	}
}

func TestBatcherBackpressure(t *testing.T) {
	// Never start the loop: the intake buffer is the only capacity, so
	// the second enqueue must be refused rather than block.
	b := newBatcher(8, time.Millisecond, 1, func(*batch) {},
		obsv.NewServiceMetrics(nil), nil)
	g := testGrid(t, 2)
	if !b.enqueue(testJob(t, "j0", "t", g)) {
		t.Fatal("first enqueue refused with an empty buffer")
	}
	if b.enqueue(testJob(t, "j1", "t", g)) {
		t.Fatal("second enqueue accepted past a full buffer")
	}
}
