package locking

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var (
	course = Path{"mmu", "intro-cs"}
	impl   = Path{"mmu", "intro-cs", "v1"}
	page   = Path{"mmu", "intro-cs", "v1", "index.html"}
	other  = Path{"mmu", "intro-mm"}
)

func mustTry(t *testing.T, m *Manager, user string, p Path, mode Mode) *Lock {
	t.Helper()
	lk, blockers, err := m.TryAcquire(user, p, mode)
	if err != nil {
		t.Fatal(err)
	}
	if lk == nil {
		t.Fatalf("%s could not lock %s %s; blocked by %v", user, mode, p, blockers)
	}
	return lk
}

func mustBlock(t *testing.T, m *Manager, user string, p Path, mode Mode) []string {
	t.Helper()
	lk, blockers, err := m.TryAcquire(user, p, mode)
	if err != nil {
		t.Fatal(err)
	}
	if lk != nil {
		t.Fatalf("%s unexpectedly locked %s %s", user, mode, p)
	}
	return blockers
}

func TestCompatibilityTablePerPaper(t *testing.T) {
	// Read-locked container: components readable, not writable; the
	// container itself readable, not writable; parents fully open.
	if !Compatible(Read, Read, Same) {
		t.Error("R/R same should be compatible")
	}
	if Compatible(Read, Write, Same) {
		t.Error("R/W same should conflict")
	}
	if !Compatible(Read, Read, HeldIsAncestor) {
		t.Error("component read under read-locked container should pass")
	}
	if Compatible(Read, Write, HeldIsAncestor) {
		t.Error("component write under read-locked container should conflict")
	}
	if !Compatible(Read, Read, HeldIsDescendant) || !Compatible(Read, Write, HeldIsDescendant) {
		t.Error("parents of a read-locked container must stay fully accessible")
	}
	// Write-locked container: everything at or below prohibited.
	if Compatible(Write, Read, Same) || Compatible(Write, Write, Same) {
		t.Error("write-locked container must be untouchable")
	}
	if Compatible(Write, Read, HeldIsAncestor) || Compatible(Write, Write, HeldIsAncestor) {
		t.Error("components of a write-locked container must be untouchable")
	}
	if !Compatible(Write, Read, HeldIsDescendant) || !Compatible(Write, Write, HeldIsDescendant) {
		t.Error("parents of a write-locked container must stay fully accessible")
	}
	// Disjoint subtrees never conflict.
	if !Compatible(Write, Write, Unrelated) {
		t.Error("unrelated objects must not conflict")
	}
}

func TestReadLockAllowsComponentReads(t *testing.T) {
	m := NewManager()
	lk := mustTry(t, m, "shih", course, Read)
	defer lk.Release()
	lk2 := mustTry(t, m, "ma", page, Read)
	lk2.Release()
}

func TestReadLockBlocksComponentWrites(t *testing.T) {
	m := NewManager()
	lk := mustTry(t, m, "shih", course, Read)
	defer lk.Release()
	blockers := mustBlock(t, m, "ma", page, Write)
	if len(blockers) != 1 || blockers[0] != "shih" {
		t.Errorf("blockers = %v", blockers)
	}
}

func TestReadLockLeavesParentsWritable(t *testing.T) {
	m := NewManager()
	lk := mustTry(t, m, "shih", impl, Read)
	defer lk.Release()
	// The parent course object stays readable and writable by others.
	lk2 := mustTry(t, m, "ma", course, Write)
	lk2.Release()
}

func TestWriteLockExcludesEverythingBelow(t *testing.T) {
	m := NewManager()
	lk := mustTry(t, m, "shih", course, Write)
	defer lk.Release()
	mustBlock(t, m, "ma", course, Read)
	mustBlock(t, m, "ma", course, Write)
	mustBlock(t, m, "ma", page, Read)
	mustBlock(t, m, "ma", page, Write)
	// Disjoint course: free.
	lk2 := mustTry(t, m, "ma", other, Write)
	lk2.Release()
}

func TestSameUserNeverSelfConflicts(t *testing.T) {
	m := NewManager()
	lk1 := mustTry(t, m, "shih", course, Write)
	lk2 := mustTry(t, m, "shih", page, Write)
	lk3 := mustTry(t, m, "shih", course, Read)
	for _, lk := range []*Lock{lk1, lk2, lk3} {
		if err := lk.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSharedReadsAtSameNode(t *testing.T) {
	m := NewManager()
	var locks []*Lock
	for _, u := range []string{"a", "b", "c"} {
		locks = append(locks, mustTry(t, m, u, impl, Read))
	}
	mustBlock(t, m, "d", impl, Write)
	for _, lk := range locks {
		lk.Release()
	}
	lk := mustTry(t, m, "d", impl, Write)
	lk.Release()
}

func TestReleaseTwice(t *testing.T) {
	m := NewManager()
	lk := mustTry(t, m, "a", course, Read)
	if err := lk.Release(); err != nil {
		t.Fatal(err)
	}
	if err := lk.Release(); !errors.Is(err, ErrReleased) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyPathRejected(t *testing.T) {
	m := NewManager()
	if _, _, err := m.TryAcquire("a", nil, Read); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Acquire(context.Background(), "a", Path{}, Read); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestAcquireBlocksUntilRelease(t *testing.T) {
	m := NewManager()
	lk := mustTry(t, m, "shih", course, Write)
	acquired := make(chan *Lock)
	go func() {
		lk2, err := m.Acquire(context.Background(), "ma", page, Read)
		if err != nil {
			t.Error(err)
			close(acquired)
			return
		}
		acquired <- lk2
	}()
	select {
	case <-acquired:
		t.Fatal("acquired while write lock held")
	case <-time.After(30 * time.Millisecond):
	}
	lk.Release()
	select {
	case lk2 := <-acquired:
		if lk2 != nil {
			lk2.Release()
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never acquired after release")
	}
}

func TestAcquireContextCancel(t *testing.T) {
	m := NewManager()
	lk := mustTry(t, m, "shih", course, Write)
	defer lk.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := m.Acquire(ctx, "ma", course, Read)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewManager()
	a := Path{"db", "a"}
	b := Path{"db", "b"}
	lkA := mustTry(t, m, "u1", a, Write)
	lkB := mustTry(t, m, "u2", b, Write)
	defer lkA.Release()
	defer lkB.Release()

	errs := make(chan error, 2)
	go func() {
		// u1 waits for b (held by u2).
		lk, err := m.Acquire(context.Background(), "u1", b, Write)
		if lk != nil {
			lk.Release()
		}
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond) // let u1 start waiting
	go func() {
		// u2 waits for a (held by u1) -> cycle.
		lk, err := m.Acquire(context.Background(), "u2", a, Write)
		if lk != nil {
			lk.Release()
		}
		errs <- err
	}()

	var sawDeadlock bool
	for i := 0; i < 1; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				sawDeadlock = true
			}
		case <-time.After(2 * time.Second):
			t.Fatal("deadlock not detected")
		}
	}
	if !sawDeadlock {
		t.Fatal("no deadlock error returned")
	}
	// Unblock the survivor.
	lkA.Release()
	lkB.Release()
	<-errs
}

func TestHeldListing(t *testing.T) {
	m := NewManager()
	mustTry(t, m, "b-user", impl, Read)
	mustTry(t, m, "a-user", impl, Read)
	mustTry(t, m, "c-user", other, Write)
	held := m.Held()
	if len(held) != 3 {
		t.Fatalf("held = %+v", held)
	}
	if held[0].Path != course.String()+"/v1" && held[0].Path != impl.String() {
		t.Errorf("held[0] = %+v", held[0])
	}
	if held[0].User != "a-user" || held[1].User != "b-user" {
		t.Errorf("user order: %+v", held)
	}
}

func TestTableStringShape(t *testing.T) {
	s := TableString()
	if !strings.Contains(s, "R on container") || !strings.Contains(s, "W on container") {
		t.Errorf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 {
		t.Errorf("table has %d lines", len(lines))
	}
}

func TestConcurrentCollaborationNoLostUpdates(t *testing.T) {
	// Eight instructors hammer four components under one course with
	// write locks (two instructors per component); per-component plain
	// counters guarded only by the lock manager must end exact.
	m := NewManager()
	counters := make([]int, 4)
	var wg sync.WaitGroup
	const perUser = 20
	for u := 0; u < 8; u++ {
		user := fmt.Sprintf("instr%d", u)
		part := u % 4
		component := Path{"mmu", "course", fmt.Sprintf("part%d", part)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perUser; i++ {
				lk, err := m.Acquire(context.Background(), user, component, Write)
				if err != nil {
					t.Error(err)
					return
				}
				counters[part]++
				if err := lk.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for part, n := range counters {
		if n != 2*perUser {
			t.Errorf("component %d writes = %d, want %d", part, n, 2*perUser)
		}
	}
}

// Property: for random lock sets, TryAcquire's grant decision always
// matches a direct evaluation of the compatibility table against every
// held lock.
func TestQuickGrantMatchesTable(t *testing.T) {
	paths := []Path{
		{"db"},
		{"db", "s1"},
		{"db", "s1", "u1"},
		{"db", "s1", "u1", "f1"},
		{"db", "s2"},
	}
	relation := func(held, req Path) Relation {
		h, r := held.String(), req.String()
		switch {
		case h == r:
			return Same
		case strings.HasPrefix(r, h+"/"):
			return HeldIsAncestor
		case strings.HasPrefix(h, r+"/"):
			return HeldIsDescendant
		default:
			return Unrelated
		}
	}
	f := func(ops []uint8, reqRaw uint8) bool {
		m := NewManager()
		type heldRec struct {
			user string
			mode Mode
			path Path
		}
		var held []heldRec
		for _, op := range ops[:min(len(ops), 6)] {
			user := fmt.Sprintf("u%d", op%3)
			mode := Read
			if op%2 == 1 {
				mode = Write
			}
			p := paths[int(op/8)%len(paths)]
			if lk, _, err := m.TryAcquire(user, p, mode); err != nil {
				return false
			} else if lk != nil {
				held = append(held, heldRec{user, mode, p})
			}
		}
		reqUser := "u9" // never among the holders
		reqMode := Read
		if reqRaw%2 == 1 {
			reqMode = Write
		}
		reqPath := paths[int(reqRaw/2)%len(paths)]
		lk, _, err := m.TryAcquire(reqUser, reqPath, reqMode)
		if err != nil {
			return false
		}
		wantGrant := true
		for _, h := range held {
			if !Compatible(h.mode, reqMode, relation(h.path, reqPath)) {
				wantGrant = false
				break
			}
		}
		return (lk != nil) == wantGrant
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// HeldLock describes one granted lock for introspection.
type HeldLock struct {
	User string
	Mode Mode
	Path string
}

// Held lists all granted locks sorted by path then user, for the
// instructor workstation's lock table display.
func (m *Manager) Held() []HeldLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []HeldLock
	var dfs func(n *node)
	dfs = func(n *node) {
		for _, h := range n.holders {
			out = append(out, HeldLock{User: h.user, Mode: h.mode, Path: h.path.String()})
		}
		keys := make([]string, 0, len(n.children))
		for k := range n.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			dfs(n.children[k])
		}
	}
	dfs(m.root)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Path != out[j].Path {
			return out[i].Path < out[j].Path
		}
		return out[i].User < out[j].User
	})
	return out
}
