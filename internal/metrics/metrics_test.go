package metrics

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeBasics pins the elementary semantics: counters sum their
// shards, gauges set and add, and nil handles are inert.
func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter: got %d want 42", c.Value())
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registration must return the same handle")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Fatalf("gauge: got %d want 4", g.Value())
	}
	var nc *Counter
	nc.Add(5)
	var ng *Gauge
	ng.Set(5)
	if nc.Value() != 0 || ng.Value() != 0 {
		t.Fatal("nil instruments must be inert")
	}
}

// TestKindMismatchPanics: re-registering a name as a different kind is a
// wiring bug and must fail loudly.
func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("x", "")
}

// TestRegistryStorm is the -race concurrency proof: parallel writers hammer
// a counter, a gauge, and a histogram while a scraper loops both exposition
// formats, and the final values must be exact. The runtimes' counter tables
// are registries used by name at wiring time from many goroutines, so the
// writers also resolve handles mid-storm: the shared counter by name on
// every iteration, and one counter each that does not exist until its
// writer registers it under the scraper's feet.
func TestRegistryStorm(t *testing.T) {
	r := New()
	c := r.Counter("storm_total", "storm counter")
	g := r.Gauge("storm_gauge", "storm gauge")
	h := r.Histogram("storm_lat_seconds", "storm latency", 1e-6)
	r.GaugeFunc("storm_fn", "sampled", func() int64 { return c.Value() })

	const writers = 8
	const perWriter = 20000
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			_ = r.Snapshot()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := r.Counter("storm_writer_total{w=\""+strconv.Itoa(w)+"\"}", "per-writer counter")
			for i := 0; i < perWriter; i++ {
				r.Counter("storm_total", "storm counter").Inc()
				own.Inc()
				g.Add(1)
				h.Observe(int64(w*perWriter + i + 1))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapes.Wait()

	const total = writers * perWriter
	if c.Value() != total {
		t.Fatalf("counter lost updates: got %d want %d", c.Value(), total)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1+writers || snap.Counters["storm_total"] != total {
		t.Fatalf("snapshot after the storm: %v, want storm_total=%d and %d per-writer counters", snap.Counters, total, writers)
	}
	for w := 0; w < writers; w++ {
		if got := snap.Counters[WithLabels("storm_writer_total", "w", strconv.Itoa(w))]; got != perWriter {
			t.Fatalf("writer %d's late-registered counter: got %d want %d", w, got, perWriter)
		}
	}
	if g.Value() != total {
		t.Fatalf("gauge lost updates: got %d want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Fatalf("histogram lost observations: got %d want %d", h.Count(), total)
	}
	if h.Max() != total {
		t.Fatalf("histogram max: got %d want %d", h.Max(), total)
	}
}

// TestHandler drives the HTTP faces through httptest-free plumbing: the
// Prometheus body must carry the series, the JSON body must decode back to
// the same values.
func TestHandlerViews(t *testing.T) {
	r := New()
	r.Counter("reqs_total", "requests").Add(3)
	r.Histogram("lat_seconds", "latency", 1e-6).ObserveDuration(5 * time.Millisecond)

	var prom strings.Builder
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reqs_total 3", "lat_seconds_count 1", `lat_seconds_bucket{le="+Inf"} 1`} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("prometheus body missing %q:\n%s", want, prom.String())
		}
	}
	s := r.Snapshot()
	if s.Counters["reqs_total"] != 3 {
		t.Fatalf("snapshot counter: %+v", s)
	}
	hs := s.Hists["lat_seconds"]
	if hs.Count != 1 || hs.Max != 0.005 {
		t.Fatalf("snapshot hist: %+v", hs)
	}
}
