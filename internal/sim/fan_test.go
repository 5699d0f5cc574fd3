package sim

import (
	"bytes"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// curGoroutine returns the calling goroutine's id, parsed from the first
// line of its stack ("goroutine 18 [running]:").
func curGoroutine() uint64 {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseUint(string(s), 10, 64)
	return id
}

// spinFor busy-waits for d, standing in for an item's model work.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestFanRunsEachIndexOnce fans out n items from 20 events of a serial
// one-domain Run, and once outside any Run, at GOMAXPROCS 1, 2 and 8,
// and requires every index to run exactly once per fan-out.
func TestFanRunsEachIndexOnce(t *testing.T) {
	const fanouts = 20
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 64, 1000} {
			withProcs(procs, func() {
				counts := make([]atomic.Int32, n)
				count := func(i int) { counts[i].Add(1) }
				c := NewCoordinator(0, false)
				d := c.NewDomain("d")
				for k := 1; k <= fanouts; k++ {
					d.Loop.At(Time(k), func() { d.Loop.Fan(n, count) })
				}
				c.Run(Time(fanouts + 1))
				NewLoop().Fan(n, count) // no Run: inline
				for i := range counts {
					if got := counts[i].Load(); got != fanouts+1 {
						t.Fatalf("GOMAXPROCS=%d n=%d: index %d ran %d times, want %d",
							procs, n, i, got, fanouts+1)
					}
				}
			})
		}
	}
}

// fanOffRun rides a serial one-domain Run whose events each fan out 64
// items of ~2 µs, until an item has run off the Run goroutine or wall
// time runs out. It returns how many items did and how many helpers
// lived during the Run, and checks that none outlives it.
func fanOffRun(t *testing.T, wall time.Duration) (off int64, helpers int) {
	t.Helper()
	c := NewCoordinator(0, false)
	d := c.NewDomain("d")
	var runG uint64
	var offItems atomic.Int64
	item := func(int) {
		if curGoroutine() != runG {
			offItems.Add(1)
		}
		spinFor(2 * time.Microsecond)
	}
	deadline := time.Now().Add(wall)
	var tick func()
	tick = func() {
		runG = curGoroutine()
		d.Loop.Fan(64, item)
		helpers = int(c.helpers.Load())
		if offItems.Load() == 0 && time.Now().Before(deadline) {
			d.Loop.After(Microsecond, tick)
		}
	}
	d.Loop.At(0, tick)
	c.Run(Time(Second))
	if n := c.helpers.Load(); n != 0 {
		t.Errorf("%d helpers outlived Run", n)
	}
	return offItems.Load(), helpers
}

// TestFanBorrowsHelpersInSerialRun requires some fan-out items to run
// off the Run goroutine of a serial one-domain Run at GOMAXPROCS 2 and
// 8, and none while a second coordinator Run is in progress.
func TestFanBorrowsHelpersInSerialRun(t *testing.T) {
	for _, procs := range []int{2, 8} {
		withProcs(procs, func() {
			off, helpers := fanOffRun(t, 5*time.Second)
			if off == 0 {
				t.Errorf("GOMAXPROCS=%d: no fan-out item ran off the Run goroutine", procs)
			}
			if helpers != procs-1 {
				t.Errorf("GOMAXPROCS=%d: %d helpers during Run, want %d", procs, helpers, procs-1)
			}
		})
	}

	withProcs(2, func() {
		other := NewCoordinator(0, false)
		d := other.NewDomain("blocker")
		entered, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
		d.Loop.At(1, func() {
			close(entered)
			<-release
		})
		go func() {
			other.Run(2)
			close(finished)
		}()
		<-entered
		off, helpers := fanOffRun(t, 200*time.Millisecond)
		close(release)
		<-finished
		if off != 0 || helpers != 0 {
			t.Errorf("%d fan-out items ran off the Run goroutine, on %d helpers, while another Run was in progress",
				off, helpers)
		}
	})

	// A parallel coordinator lends nothing.
	withProcs(2, func() {
		c := NewCoordinator(0, true)
		d := c.NewDomain("d")
		var off int
		d.Loop.At(1, func() {
			runG := curGoroutine()
			d.Loop.Fan(64, func(int) {
				if curGoroutine() != runG {
					off++
				}
			})
		})
		c.Run(2)
		if off != 0 {
			t.Errorf("%d fan-out items of a parallel coordinator's domain ran off its goroutine", off)
		}
	})
}

// TestFanHelperPanicSurfacesFromRun panics in an item running on a
// helper and requires the panic to come out of Coordinator.Run with its
// value, after every helper has exited.
func TestFanHelperPanicSurfacesFromRun(t *testing.T) {
	withProcs(2, func() {
		c := NewCoordinator(0, false)
		d := c.NewDomain("d")
		deadline := time.Now().Add(5 * time.Second)
		var tick func()
		tick = func() {
			runG := curGoroutine()
			var taken atomic.Bool
			d.Loop.Fan(2, func(int) {
				if curGoroutine() != runG {
					taken.Store(true)
					panic("boom on a helper")
				}
				// Give a helper the time to claim the other item.
				for wait := time.Now().Add(time.Millisecond); !taken.Load() && time.Now().Before(wait); {
				}
			})
			if time.Now().Before(deadline) {
				d.Loop.After(Microsecond, tick)
			}
		}
		d.Loop.At(0, tick)
		got := func() (r any) {
			defer func() { r = recover() }()
			c.Run(Time(Second))
			return nil
		}()
		if got != "boom on a helper" {
			t.Fatalf("Run ended with %v, want the helper's panic", got)
		}
		if n := c.helpers.Load(); n != 0 {
			t.Errorf("%d helpers outlived the panicking Run", n)
		}
		if n := runsInProgress.Load(); n != 0 {
			t.Errorf("%d runs still counted in progress", n)
		}
	})
}

// TestFanAllocatesNothing measures one 64-item fan-out with helpers
// engaged: a bound function and a reused job record cost no allocation.
func TestFanAllocatesNothing(t *testing.T) {
	withProcs(2, func() {
		c := NewCoordinator(0, false)
		d := c.NewDomain("d")
		var sink [64]int
		work := func(i int) { sink[i]++ }
		allocs := -1.0
		d.Loop.At(1, func() {
			d.Loop.Fan(len(sink), work) // starts the helpers
			allocs = testing.AllocsPerRun(200, func() { d.Loop.Fan(len(sink), work) })
		})
		c.Run(2)
		if allocs != 0 {
			t.Fatalf("one fan-out allocates %v objects, want 0", allocs)
		}
		if sink[63] != 202 {
			t.Fatalf("item 63 ran %d times, want 202", sink[63])
		}
	})
}

// TestFanBeyondOneJob fans out more items than one claim word describes.
func TestFanBeyondOneJob(t *testing.T) {
	withProcs(2, func() {
		const n = maxJob + 3
		seen := make([]atomic.Int32, n)
		c := NewCoordinator(0, false)
		d := c.NewDomain("d")
		d.Loop.At(1, func() { d.Loop.Fan(n, func(i int) { seen[i].Add(1) }) })
		c.Run(2)
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("index %d ran %d times", i, got)
			}
		}
	})
}
