package main

import (
	"testing"
	"time"

	"capsys/internal/engine"
	"capsys/internal/nexmark"
	"capsys/internal/statebackend"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // rank 990, exactly 10 beyond
		{999, 0.99, 0, false},   // rank 990, only 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
		{100, 0.9, 90, true},
		{100, 0.91, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if p, v, ok := highestSupported(seq(1000), 0.5, 0.9, 0.99, 0.999); !ok || p != 0.99 || v != 990 {
		t.Errorf("highestSupported over 1000 samples = p%g %g %v; want p99 990", p*100, v, ok)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if _, ok := percentile(xs, 0.5); ok || xs[0] != 3 {
		t.Errorf("percentile over 3 samples must be unsupported and leave its input unsorted, got %v", xs)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestDueTimeLatencyAndLag(t *testing.T) {
	start := time.Unix(100, 0)
	// 2 source tasks sharing 4000 records/s: each task's record i is due
	// every 0.5 ms.
	s := newSchedule(start, 4000, 2)
	if s.period != 500*time.Microsecond {
		t.Fatalf("period = %v, want 500µs", s.period)
	}
	arrive := start.Add(10 * time.Millisecond)
	if got := s.latencyMS(4, arrive); got != 8 {
		t.Errorf("latency of record 4 arriving at +10ms = %g ms, want 8", got)
	}
	// A record replayed after a restore keeps its original due time: the
	// same index arriving later only adds the extra wait.
	if got := s.latencyMS(4, arrive.Add(time.Second)); got != 1008 {
		t.Errorf("latency of replayed record 4 = %g ms, want 1008", got)
	}
	if got := s.lagMS(4, start.Add(3*time.Millisecond)); got != 1 {
		t.Errorf("lag of record 4 emitted at +3ms = %g ms, want 1", got)
	}
	if got := s.lagMS(4, start.Add(time.Millisecond)); got != 0 {
		t.Errorf("an emission ahead of schedule must have no lag, got %g ms", got)
	}
}

func TestFirstIndexAtOrAfter(t *testing.T) {
	times := []int64{1, 2, 4, 4, 7}
	for _, c := range []struct {
		t    int64
		want int
	}{{0, 0}, {1, 0}, {3, 2}, {4, 2}, {5, 4}, {8, 5}} {
		if got := firstIndexAtOrAfter(times, c.t); got != c.want {
			t.Errorf("firstIndexAtOrAfter(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

// TestQ1EventClock pins what the window latency relies on: a source
// task's bid i has event time i+1, the same for every task.
func TestQ1EventClock(t *testing.T) {
	_, a := q1Stream(1, 0, 1000)
	_, b := q1Stream(1, 1, 1000)
	for i := range a {
		if a[i] != int64(i+1) || b[i] != a[i] {
			t.Fatalf("bid %d: event times %d and %d, want %d", i, a[i], b[i], i+1)
		}
	}
}

func TestDigestIsAMultisetHash(t *testing.T) {
	elems := []uint64{hashRecord("a", 1, 2), hashRecord("b", 1, 2), hashRecord("a", 2, 2)}
	var fwd, rev digest
	for _, h := range elems {
		fwd.add(h, 1)
	}
	for i := len(elems) - 1; i >= 0; i-- {
		rev.add(elems[i], 1)
	}
	if fwd != rev {
		t.Fatalf("digest depends on order: %+v vs %+v", fwd, rev)
	}
	lost := digest{}
	lost.add(elems[0], 1)
	lost.add(elems[1], 1)
	dup := fwd
	dup.add(elems[2], 1)
	changed := lost
	changed.add(hashRecord("a", 3, 2), 1)
	for _, c := range []struct {
		name string
		d    digest
		want int64
	}{{"equal", rev, 0}, {"lost", lost, 1}, {"duplicated", dup, 1}, {"changed", changed, 1}} {
		if got := c.d.failedAgainst(fwd); got != c.want {
			t.Errorf("%s: failedAgainst = %d, want %d", c.name, got, c.want)
		}
	}
	// Weighted elements fold like repeated ones: a window count split
	// across two partial results digests like the whole count.
	var whole, split digest
	whole.add(elems[0], 5)
	split.add(elems[0], 2)
	split.add(elems[0], 3)
	if whole != split {
		t.Errorf("weight 5 = %+v, weights 2+3 = %+v", whole, split)
	}
	var merged digest
	merged.merge(lost)
	merged.merge(digest{Sum: elems[2], Count: 1})
	if merged != fwd {
		t.Errorf("merge of parts = %+v, want %+v", merged, fwd)
	}
}

// openSource builds and opens source task index of a factory.
func openSource(t *testing.T, f engine.Factory, index int) engine.Source {
	t.Helper()
	tc := &engine.TaskContext{Index: index, Parallelism: 2}
	inst, err := f(tc)
	if err != nil {
		t.Fatal(err)
	}
	src, ok := inst.(engine.Source)
	if !ok {
		t.Fatalf("factory built %T", inst)
	}
	if err := src.Open(tc); err != nil {
		t.Fatal(err)
	}
	return src
}

// TestQ1ExpectedMatchesBinding checks the formula digest against the
// nexmark binding's window operator run by hand over both source streams.
func TestQ1ExpectedMatchesBinding(t *testing.T) {
	const seed, n = 3, 3000
	bind, err := nexmark.BindEngine(nexmark.Q1Sliding(), seed)
	if err != nil {
		t.Fatal(err)
	}
	tc := &engine.TaskContext{Parallelism: 1, State: statebackend.NewStore(nil, statebackend.Options{}).Namespace("w")}
	inst, err := bind.Factories["slide-win"](tc)
	if err != nil {
		t.Fatal(err)
	}
	win := inst.(engine.Operator)
	if err := win.Open(tc); err != nil {
		t.Fatal(err)
	}
	var got digest
	fold := func(r engine.Record) {
		h, w := q1Fold(r)
		got.add(h, w)
	}
	srcs := []engine.Source{openSource(t, bind.Factories["src"], 0), openSource(t, bind.Factories["src"], 1)}
	for i := int64(0); i < n; i++ {
		for _, src := range srcs {
			rec, _ := src.Next(i)
			if err := win.Process(rec, 0, fold); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := win.Close(fold); err != nil {
		t.Fatal(err)
	}
	if want := q1Expected(seed, []int64{n, n}); got != want {
		t.Errorf("binding digest %+v, formula digest %+v", got, want)
	}
}
