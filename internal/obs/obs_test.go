package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("requests_total") != c {
		t.Error("Counter is not idempotent per name")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
	r.Func("derived", func() uint64 { return 42 })
	if got := r.Value("derived"); got != 42 {
		t.Errorf("func metric = %d, want 42", got)
	}
	if got := r.Value("missing"); got != 0 {
		t.Errorf("missing metric = %d, want 0", got)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	g := r.Gauge("y")
	g.Set(3)
	h := r.Histogram("z", nil)
	h.Observe(1)
	h.ObserveSince(time.Now())
	r.Func("f", func() uint64 { return 1 })
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil handles retained state")
	}
	var tr *Tracer
	tr.Record(TraceEvent{Kind: "x"})
	if tr.Snapshot() != nil || tr.Total() != 0 {
		t.Error("nil tracer retained state")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", []int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 10, 50, 99, 500, 5000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Errorf("count = %d, want 7", got)
	}
	if got := h.Sum(); got != 5665 {
		t.Errorf("sum = %d, want 5665", got)
	}
	// p50 of 7 observations: rank 3.5 lands in the (10,100] bucket.
	if q := h.Quantile(0.5); q <= 10 || q > 100 {
		t.Errorf("p50 = %d, want in (10,100]", q)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_ns_bucket{le="10"} 3`,
		`lat_ns_bucket{le="100"} 5`,
		`lat_ns_bucket{le="1000"} 6`,
		`lat_ns_bucket{le="+Inf"} 7`,
		"lat_ns_sum 5665",
		"lat_ns_count 7",
		"lat_ns_p50",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}

func TestLabelledHistogramTextSplicesLabels(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`rpc_call_ns{service="login",method="validate_rmc"}`, []int64{100})
	h.Observe(50)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`rpc_call_ns_bucket{service="login",method="validate_rmc",le="100"} 1`,
		`rpc_call_ns_count{service="login",method="validate_rmc"} 1`,
		`rpc_call_ns_sum{service="login",method="validate_rmc"} 50`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextScalarLines(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(3)
	r.Gauge("b").Set(-2)
	r.Func("c", func() uint64 { return 9 })
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a_total 3\n", "b -2\n", "c 9\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("WriteText missing %q:\n%s", want, sb.String())
		}
	}
}

func TestTracerOrderAndWrap(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Record(TraceEvent{Kind: "k", Depth: i})
	}
	if got := tr.Total(); got != 20 {
		t.Errorf("total = %d, want 20", got)
	}
	events := tr.Snapshot()
	if len(events) != 8 {
		t.Fatalf("retained %d events, want 8", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("snapshot out of order at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
	// The newest 8 of 20 survive.
	if events[len(events)-1].Depth != 19 || events[0].Depth != 12 {
		t.Errorf("retained window = depths [%d..%d], want [12..19]",
			events[0].Depth, events[len(events)-1].Depth)
	}
}

func TestTracerEchoFiltersKinds(t *testing.T) {
	tr := NewTracer(16)
	var sb strings.Builder
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	tr.Echo(w, "liveness")
	tr.Record(TraceEvent{Kind: "validate", Subject: "noisy"})
	tr.Record(TraceEvent{Kind: "liveness", Subject: "cr-1", Outcome: "dead"})
	mu.Lock()
	out := sb.String()
	mu.Unlock()
	if strings.Contains(out, "noisy") {
		t.Error("echo leaked a filtered kind")
	}
	if !strings.Contains(out, "liveness") || !strings.Contains(out, "cr-1") {
		t.Errorf("echo missing liveness line: %q", out)
	}
	tr.Echo(nil)
	tr.Record(TraceEvent{Kind: "liveness", Subject: "cr-2"})
	mu.Lock()
	defer mu.Unlock()
	if strings.Contains(sb.String(), "cr-2") {
		t.Error("echo still active after disable")
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestWriteJSONLimit(t *testing.T) {
	tr := NewTracer(32)
	for i := 0; i < 10; i++ {
		tr.Record(TraceEvent{Kind: "k"})
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb, 3); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"total": 10`) || !strings.Contains(out, `"retained": 3`) {
		t.Errorf("WriteJSON = %s", out)
	}
}

// TestConcurrentRegistryAndTracer hammers every mutation path from
// parallel writers while readers snapshot continuously; run under -race
// (the CI race job covers internal/obs) this pins the layer's
// thread-safety contract.
func TestConcurrentRegistryAndTracer(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(256)
	const writers = 8
	const perWriter = 2000

	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				var sb strings.Builder
				if err := r.WriteText(&sb); err != nil {
					t.Error(err)
					return
				}
				_ = tr.Snapshot()
			}
		}()
	}

	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(worker int) {
			defer writersWG.Done()
			c := r.Counter("ops_total")
			g := r.Gauge("inflight")
			h := r.Histogram("lat_ns", nil)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i))
				tr.Record(TraceEvent{Kind: "op", Depth: worker})
				g.Add(-1)
			}
		}(w)
	}
	writersWG.Wait()
	close(stopReaders)
	readers.Wait()

	if got := r.Counter("ops_total").Value(); got != writers*perWriter {
		t.Errorf("ops_total = %d, want %d", got, writers*perWriter)
	}
	if got := r.Histogram("lat_ns", nil).Count(); got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
	if got := r.Gauge("inflight").Value(); got != 0 {
		t.Errorf("inflight = %d, want 0", got)
	}
	if got := tr.Total(); got != writers*perWriter {
		t.Errorf("trace total = %d, want %d", got, writers*perWriter)
	}
}

func TestQuantile(t *testing.T) {
	if got := Quantile([]float64(nil), 99); got != 0 {
		t.Errorf("Quantile(empty) = %v, want 0", got)
	}
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if p50, p99 := Quantile(xs, 50), Quantile(xs, 99); p50 != 51 || p99 != 100 {
		t.Errorf("Quantile(1..100) p50, p99 = %d, %d; want 51, 100", p50, p99)
	}
	if got := Quantile([]string{"only"}, 99); got != "only" {
		t.Errorf("Quantile(one) = %q", got)
	}
}
