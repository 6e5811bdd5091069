package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/docdb"
	"repro/internal/fabric"
	"repro/internal/relstore"
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
// both sides counted, about 10 % above the 8 allocations and 168 bytes
// measured once each side decoded into its connection's one envelope
// (11 and 368 before).
const (
	smallRPCAllocBudget = 9
	smallRPCByteBudget  = 185
)

// TestSmallRPCAllocBudget pins what the path every RPC takes allocates
// for a message with almost no body: the request's encode and frame,
// the server's frame read, dispatch and reply on the connection's
// goroutine, and the caller's frame read and decode.
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
	checkAllocBudget(t, "a small RPC", 10, 20000, call, smallRPCAllocBudget, smallRPCByteBudget)
}

// checkAllocBudget runs op warm times, then n times under measurement,
// and fails t when the mean allocations or bytes per op pass their
// budget. It counts the whole process, so an in-process server is
// counted with its caller.
func checkAllocBudget(t *testing.T, what string, warm, n int, op func(), allocBudget, byteBudget int) {
	t.Helper()
	for i := 0; i < warm; i++ {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%s allocates %.1f objects, %.0f bytes", what, allocs, bytes)
	if allocs > float64(allocBudget) {
		t.Errorf("%.1f allocations per op, budget %d", allocs, allocBudget)
	}
	if bytes > float64(byteBudget) {
		t.Errorf("%.0f bytes per op, budget %d", bytes, byteBudget)
	}
}

// The budget of one row inserted through a relstore Batch and
// committed to a store with a WAL tail, about 10 % above the 18
// allocations and 1,689 bytes measured.
const (
	durableInsertAllocBudget = 20
	durableInsertByteBudget  = 1860
)

// TestDurableInsertAllocBudget pins what one Batch insert costs on a
// durable store: the row's tuple, the upkeep of one built index, and
// the one WAL record the commit appends. Every document operation
// commits this way (docdb's Store.commit), so a caller moved from a
// convenience onto Batch shows here if the commit path grew.
func TestDurableInsertAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the budget is for the optimized build; -race instrumentation allocates more")
	}
	db := relstore.NewDB()
	if _, err := db.OpenDurable(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.CloseWAL() })
	err := db.CreateTable(relstore.Schema{
		Name: "items",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt, NotNull: true},
			{Name: "grp", Type: relstore.TInt},
			{Name: "name", Type: relstore.TText},
		},
		Key: "id",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("items", "grp"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Lookup("items", "grp", int64(0)); err != nil { // builds the index
		t.Fatal(err)
	}
	id := int64(0)
	insert := func() {
		id++
		var b relstore.Batch
		b.Insert("items", relstore.Row{"id": id, "grp": id % 16, "name": "lecture"})
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	checkAllocBudget(t, "a durable Batch insert", 100, 2000, insert, durableInsertAllocBudget, durableInsertByteBudget)
}

// The budget of one Resolve hop, both stations counted, about 10 %
// above the 219 allocations and 420,600 bytes measured (a 391,674-byte
// reply body: the leaf's frame buffer is most of the bytes; the root
// sends its media as the store views they are).
const (
	resolveHopAllocBudget = 240
	resolveHopByteBudget  = 463000
)

// TestResolveHopAllocBudget pins what a station allocates, together
// with its parent, to resolve lectureSpec's course over one fabric hop:
// the request, the root's export and reply segments on its
// connection's goroutine, and the leaf's frame read and bundle decode,
// whose media alias the frame. A negative watermark keeps every fetch remote.
func TestResolveHopAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the budget is for the optimized build; -race instrumentation allocates more")
	}
	store, spec := lectureCourse(t)
	root, err := fabric.NewRoot(store, "127.0.0.1:0", 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	leafStore, err := workload.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := fabric.Join(leafStore, "127.0.0.1:0", root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()
	resolve := func() {
		res, err := leaf.Resolve(spec.URL)
		if err != nil || res.Local || res.Replicated || res.ServedBy != 1 {
			t.Fatalf("resolve %s: %+v, %v", spec.URL, res, err)
		}
	}
	checkAllocBudget(t, "a Resolve hop", 3, 200, resolve, resolveHopAllocBudget, resolveHopByteBudget)
}

// TestRestartHashBudget pins, as exact counts, the media a durable
// station's restart reads from its BLOB sidecar and hashes: recovery
// reads and hashes none, the first export of a course reads and hashes
// each of its media once, and the next export reads and hashes
// nothing.
func TestRestartHashBudget(t *testing.T) {
	store, spec := durableLectureStation(t)
	if _, err := store.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	store.Rel().CloseWAL()
	restarted, err := workload.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restarted.Recover(store.DurableDir()); err != nil {
		t.Fatal(err)
	}
	defer restarted.Rel().CloseWAL()
	work := func() (loaded, hashed int64) {
		st := restarted.Blobs().Stats()
		return st.LoadedBytes, st.HashedBytes
	}
	if loaded, hashed := work(); loaded != 0 || hashed != 0 {
		t.Errorf("recovery read %d media bytes and hashed %d, want 0 and 0", loaded, hashed)
	}
	b, err := restarted.ExportBundle(spec.URL)
	if err != nil {
		t.Fatal(err)
	}
	media := map[string]bool{}
	var mediaBytes int64
	for _, m := range b.Media {
		if !media[m.Hash] {
			media[m.Hash] = true
			mediaBytes += int64(len(m.Data))
		}
	}
	if len(media) == 0 {
		t.Fatal("the course has no media")
	}
	if loaded, hashed := work(); loaded != mediaBytes || hashed != mediaBytes {
		t.Errorf("the first export read %d bytes and hashed %d, want the %d bytes of its %d media for each", loaded, hashed, mediaBytes, len(media))
	}
	if _, err := restarted.ExportBundle(spec.URL); err != nil {
		t.Fatal(err)
	}
	if loaded, hashed := work(); loaded != mediaBytes || hashed != mediaBytes {
		t.Errorf("the second export read %d bytes and hashed %d, want 0 and 0", loaded-mediaBytes, hashed-mediaBytes)
	}
}

// The budget of replaying one RecordTest WAL record at a restart,
// about 10 % above the 8.12 allocations measured (9.12 while each
// record's table name was allocated afresh).
const replayRecordAllocBudget = 9

// TestReplayRecordAllocBudget pins what a restart allocates to replay
// one RecordTest WAL record: recovering a checkpointed station whose
// tail holds replayRecords of them, less recovering the same
// checkpoint with an empty tail, per record.
func TestReplayRecordAllocBudget(t *testing.T) {
	if raceBuild {
		t.Skip("the budget is for the optimized build; -race instrumentation allocates more")
	}
	const replayRecords = 200
	store, spec := durableLectureStation(t)
	if _, err := store.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	dir := store.DurableDir()
	store.Rel().CloseWAL()
	recoverDir := func() *docdb.Store {
		s, err := workload.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(dir); err != nil {
			t.Fatal(err)
		}
		return s
	}
	recoverCold := func() { recoverDir().Rel().CloseWAL() }
	empty := testing.AllocsPerRun(5, recoverCold)

	s := recoverDir()
	for i := 0; i < replayRecords; i++ {
		tr := docdb.TestRecord{Name: fmt.Sprintf("replayed-%04d", i), ScriptName: spec.ScriptName, Scope: "local"}
		if err := s.RecordTest(tr); err != nil {
			t.Fatal(err)
		}
	}
	s.Rel().CloseWAL()
	full := testing.AllocsPerRun(5, recoverCold)

	per := (full - empty) / replayRecords
	t.Logf("replaying one RecordTest record allocates %.2f objects (%.0f with the tail, %.0f without)", per, full, empty)
	if per > replayRecordAllocBudget {
		t.Errorf("replaying one RecordTest record allocates %.2f objects, budget %d", per, replayRecordAllocBudget)
	}
}
