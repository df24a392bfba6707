package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestLatencyBuckets is the table-driven regression for the histogram
// bucket-boundary bugfix: a measured 0µs gets its own bucket instead of
// being lumped into (0,1], every bucket's upper bound is inclusive exactly
// as documented, and over-range observations saturate into the last
// bucket.
func TestLatencyBuckets(t *testing.T) {
	cases := []struct {
		us   int64
		want int
	}{
		{0, 0},
		{-1, 0}, // a clock gone backwards still lands somewhere sane
		{1, 1},
		{2, 2},
		{3, 3},
		{4, 3},
		{5, 4},
		{1 << 24, 25},
		{1<<24 + 1, 26},
		{1 << 26, 26},
		{math.MaxInt64, 26},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.us); got != tc.want {
			t.Errorf("bucketOf(%dµs) = %d, want %d", tc.us, got, tc.want)
		}
	}

	// Bounds and placement must agree: bucketBound(b) is the largest
	// latency that maps into bucket b, and one more microsecond spills into
	// b+1 — the comment/bounds disagreement the old code shipped.
	if bucketBound(0) != 0 {
		t.Errorf("bucketBound(0) = %v, want 0", bucketBound(0))
	}
	for b := 1; b < latencyBuckets-1; b++ {
		bound := bucketBound(b).Microseconds()
		if got := bucketOf(bound); got != b {
			t.Errorf("bucketOf(bound of %d = %dµs) = %d, want %d", b, bound, got, b)
		}
		if got := bucketOf(bound + 1); got != b+1 {
			t.Errorf("bucketOf(%dµs) = %d, want %d (bound of %d is inclusive)", bound+1, got, b+1, b)
		}
	}

	// A histogram of all-zero latencies must report a 0 quantile, not the
	// old phantom 1µs.
	var h histogram
	for i := 0; i < 10; i++ {
		h.observe(0)
	}
	if q := h.quantile(0.99); q != 0 {
		t.Errorf("all-zero histogram p99 = %v, want 0", q)
	}
	h.observe(3 * time.Microsecond)
	if q := h.quantile(1.0); q != 4*time.Microsecond {
		t.Errorf("p100 = %v, want the 3µs observation's bucket bound 4µs", q)
	}
}

// TestViewPublishCounters pins the publication-cost counters on /metrics:
// tomod_view_publish_words_total adds exactly the column words each
// publication copied — a full window for the registration view, then only
// the words covering each batch — and tomod_view_publish_full_total counts
// the fallbacks to the full copy, including the one a publish pays when an
// estimate still holds the retiring view.
func TestViewPublishCounters(t *testing.T) {
	const window, batch = 256, 64 // quickstart: 3 paths × 4 words per column
	d := New(Config{Shards: 1, QueueDepth: 16})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	defer d.Shutdown(context.Background())
	if _, err := d.Register(TenantConfig{Name: "p", Scenario: "quickstart", Seed: 1, Window: window}); err != nil {
		t.Fatal(err)
	}
	d.mu.RLock()
	tn := d.tenants["p"]
	d.mu.RUnlock()
	ingest := func() {
		t.Helper()
		if _, err := d.Ingest("p", quickstartBatch(batch)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "batch published", func() bool { return int64(tn.view.Load().seen) >= tn.accepted.Load() })
	}
	expect := func(full, words int) {
		t.Helper()
		status, body := get(t, srv.URL+"/metrics", nil)
		if status != http.StatusOK {
			t.Fatalf("metrics: status %d", status)
		}
		for _, want := range []string{
			fmt.Sprintf("tomod_view_publish_full_total %d\n", full),
			fmt.Sprintf("tomod_view_publish_words_total %d\n", words),
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("metrics output missing %q:\n%s", want, body)
			}
		}
	}

	expect(1, 12) // the registration view: a full copy of the empty window
	for i := 0; i < 8; i++ {
		ingest() // one aligned 64-row batch: one word per path
	}
	expect(1, 12+8*3)

	// An estimate holds the current view while the next batch publishes,
	// so that publish builds a fresh view: a full copy.
	box := tn.view.Load()
	if !box.acquire() {
		t.Fatal("acquire of the latest view failed")
	}
	ingest()
	box.release()
	expect(2, 12+8*3+12)

	// With no reader, the next publish recycles that view, one batch
	// behind, and copies one word per path again.
	ingest()
	expect(2, 12+8*3+12+3)
}
