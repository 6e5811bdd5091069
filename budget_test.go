package repro

import (
	"runtime"
	"testing"

	"repro/internal/docdb"
	"repro/internal/schema"
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
