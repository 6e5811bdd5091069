package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/docdb"
	"repro/internal/schema"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Exact-count budgets for the operations the bench's workloads spend
// their time in. A count, unlike a timing, does not depend on the
// machine, so each is pinned about 10 % above its measured value and
// fails tier-1 the day the operation starts allocating more. Under
// -race the instrumentation allocates where the optimized build does
// not, so the budgets are skipped there.

// The budget of one check-out/check-in pair of a script on a durable
// station, about 10 % above the 67 allocations and 5,174 bytes
// measured.
const (
	checkoutPairAllocBudget = 74
	checkoutPairByteBudget  = 5700
)

// durableLectureStation authors lectureCourse's course on a station
// that writes a WAL, as the author-edit workload's station does.
func durableLectureStation(tb testing.TB) (*docdb.Store, workload.CourseSpec) {
	tb.Helper()
	store, err := workload.NewStore()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := store.Recover(tb.TempDir()); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { store.Rel().CloseWAL() })
	spec := lectureSpec()
	if _, _, err := workload.AuthorCourse(store, spec); err != nil {
		tb.Fatal(err)
	}
	return store, spec
}

// TestCheckoutPairAllocBudget pins what one check-out/check-in pair of
// a component allocates on a durable station: two transactions, each
// one WAL append, and the version row the check-in records.
func TestCheckoutPairAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the budget is for the optimized build; -race instrumentation allocates more")
	}
	store, spec := durableLectureStation(t)
	pair := func() {
		id, err := store.CheckOut(schema.KindScript, spec.ScriptName, "budget")
		if err != nil {
			t.Fatal(err)
		}
		if err := store.CheckIn(id, "budget"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		pair()
	}
	const pairs = 100
	allocs := testing.AllocsPerRun(pairs, pair)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	perPair := float64(after.TotalAlloc-before.TotalAlloc) / pairs
	t.Logf("a durable check-out/check-in pair allocates %.0f objects, %.0f bytes", allocs, perPair)
	if allocs > checkoutPairAllocBudget {
		t.Errorf("%.0f allocations per pair, budget %d", allocs, checkoutPairAllocBudget)
	}
	if perPair > checkoutPairByteBudget {
		t.Errorf("%.0f bytes per pair, budget %d", perPair, checkoutPairByteBudget)
	}
}

// The budget of one small RPC through a transport pool over loopback,
// both sides counted, about 10 % above the 27 allocations and 784 bytes
// measured.
const (
	smallRPCAllocBudget = 30
	smallRPCByteBudget  = 860
)

// TestSmallRPCAllocBudget pins what the path every RPC takes allocates
// for a message with almost no body: the request's encode and frame,
// the server's dispatch goroutine, span and reply, and the caller's
// frame read and decode.
func TestSmallRPCAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the budget is for the optimized build; -race instrumentation allocates more")
	}
	srv := transport.NewServer()
	srv.Handle("echo", func(decode func(any) error) (any, error) {
		var req struct{ N int }
		if err := decode(&req); err != nil {
			return nil, err
		}
		return req, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := transport.NewPool(addr, 1, time.Minute)
	defer pool.Close()
	n := 0
	call := func() {
		n++
		var resp struct{ N int }
		if err := pool.Call("echo", struct{ N int }{N: n}, &resp); err != nil || resp.N != n {
			t.Fatalf("echo %d: %+v, %v", n, resp, err)
		}
	}
	for i := 0; i < 10; i++ {
		call()
	}
	const calls = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / calls
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("a small RPC allocates %.1f objects, %.0f bytes", allocs, perCall)
	if allocs > smallRPCAllocBudget {
		t.Errorf("%.1f allocations per call, budget %d", allocs, smallRPCAllocBudget)
	}
	if perCall > smallRPCByteBudget {
		t.Errorf("%.0f bytes per call, budget %d", perCall, smallRPCByteBudget)
	}
}
