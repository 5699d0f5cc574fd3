package runner

import (
	"sync/atomic"
	"testing"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	items := make([]int, 257) // odd size: workers finish unevenly
	for i := range items {
		items[i] = i * 3
	}
	for _, opt := range []Exec{
		{Workers: 1},
		{Workers: 2},
		{Workers: 7},
		{Workers: 64}, // more workers than a 1-core box has; still correct
	} {
		got := Map(opt, items, func(i, v int) int { return v + i })
		if len(got) != len(items) {
			t.Fatalf("opt %+v: %d results for %d items", opt, len(got), len(items))
		}
		for i, v := range got {
			if v != i*4 {
				t.Fatalf("opt %+v: result[%d] = %d, want %d", opt, i, v, i*4)
			}
		}
	}
}

func TestMapEachIndexExactlyOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	items := make([]struct{}, n)
	Map(Exec{Workers: 8}, items, func(i int, _ struct{}) int {
		counts[i].Add(1)
		return 0
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d executed %d times", i, c)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(Exec{}, nil, func(int, int) int { return 1 }); got != nil {
		t.Fatalf("empty input produced %v", got)
	}
}
