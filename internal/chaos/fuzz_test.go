package chaos

import (
	"errors"
	"testing"
	"time"

	"stencilivc/internal/core"
	"stencilivc/internal/grid"
	"stencilivc/internal/parallel"
)

// FuzzInjectionSchedule decodes an arbitrary byte string into a fault
// schedule over every pgreedy site — including panicking and stalling
// rules at sites the solver never expects to crash — and asserts the
// pipeline's invariant: whatever the schedule, parallel.Greedy either
// returns a complete coloring that passes Validate or a typed error; an
// injected panic must never escape and an invalid coloring must never
// leak.
//
// Schedule encoding, 4 bytes per rule (up to 12 rules):
//
//	byte 0: site   (mod 4 → stall, panic, halo, drop)
//	byte 1: kind   (mod 4 → OnNth, EveryNth+budget, WithProb, WithProb+Panicking)
//	byte 2: magnitude (visit, period, or probability numerator)
//	byte 3: budget (EveryNth only)
func FuzzInjectionSchedule(f *testing.F) {
	f.Add(uint64(1), []byte{})                         // no faults
	f.Add(uint64(2), []byte{1, 0, 2, 0})               // panic site, OnNth(3)
	f.Add(uint64(3), []byte{2, 2, 128, 0})             // halo misreads, p≈0.25
	f.Add(uint64(4), []byte{3, 1, 1, 0, 2, 3, 64, 0})  // drop every visit + panicking halo
	f.Add(uint64(5), []byte{0, 1, 2, 4, 1, 3, 255, 0}) // stalls + always-panicking panic site
	sites := []core.FaultSite{
		parallel.SiteWorkerStall,
		parallel.SiteWorkerPanic,
		parallel.SiteHaloRead,
		parallel.SiteRepairDrop,
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		in := New(seed)
		for i := 0; i+3 < len(data) && i < 48; i += 4 {
			site := sites[int(data[i])%len(sites)]
			mag := int64(data[i+2])
			switch data[i+1] % 4 {
			case 0:
				in.OnNth(site, mag%64+1)
			case 1:
				in.EveryNth(site, mag%8+1, int64(data[i+3])%16)
			case 2:
				in.WithProb(site, float64(mag)/512)
			case 3:
				in.WithProb(site, float64(mag)/1024).Panicking(site)
			}
			if site == parallel.SiteWorkerStall {
				// Keep stalls real but bounded so the fuzzer's iteration
				// rate stays useful.
				in.Stalling(site, 50*time.Microsecond)
			}
		}
		g := grid.MustGrid2D(48, 48)
		for v := range g.W {
			g.W[v] = int64(v)%7 + 1
		}
		cfg := parallel.Config{TileSize: 16, Order: parallel.Order(seed % 2)}
		c, err := parallel.Greedy(g, cfg, &core.SolveOptions{Parallelism: 4, Injector: in})
		if err != nil {
			// The only acceptable failure is a typed solve error (every
			// schedule here is cancellation-free); nothing may panic out.
			var se *core.SolveError
			if !errors.As(err, &se) {
				t.Fatalf("untyped error under schedule %v: %v", in, err)
			}
			return
		}
		if verr := c.Validate(g); verr != nil {
			t.Fatalf("invalid coloring under schedule %v: %v", in, verr)
		}
	})
}
