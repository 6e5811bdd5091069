// Package locking implements the object-locking compatibility table of
// the paper (section 3) for hierarchical Web document objects, enabling
// collaborative course editing: "if a container has a read lock by a
// user, its components (and itself) can have the read access by another
// user, but not the write access. However, the parent objects of the
// container can have both read and write access by another user."
//
// Objects form a containment tree addressed by paths (database /
// script / implementation / file). The rules, as a compatibility table
// between a held lock and a request by a different user:
//
//	held \ request        R same   W same   R component   W component   R parent   W parent
//	Read  on container      yes      no        yes            no           yes        yes
//	Write on container      no       no        no             no           yes        yes
//
// A lock on a container covers its components (the "component" columns
// describe requests inside a locked container's subtree), while parent
// objects of the container stay both readable and writable, exactly as
// the paper's table prescribes. Locks held by the same user never
// conflict with that user's own requests. The manager blocks
// conflicting requests, detects deadlocks through a wait-for graph, and
// honours context cancellation.
//
// This manager expresses user-visible, document-level policy only.
// Storage-level isolation is no longer its job: the relational
// substrate (internal/relstore) runs per-table reader/writer locking
// with transactional undo, so row access under a granted document lock
// is already consistent without funnelling every operation through this
// manager.
package locking

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Read Mode = iota + 1
	Write
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Relation describes where a held lock sits relative to a requested
// node.
type Relation int

// Relations between the held lock's node and the requested node.
const (
	// Same: the request addresses exactly the locked object.
	Same Relation = iota + 1
	// HeldIsAncestor: the request addresses a component inside the
	// locked container.
	HeldIsAncestor
	// HeldIsDescendant: the request addresses a parent of the locked
	// container.
	HeldIsDescendant
	// Unrelated: disjoint subtrees.
	Unrelated
)

// Compatible is the paper's compatibility table as a pure function:
// would a lock held by one user in the given relation allow another
// user's request?
func Compatible(held Mode, request Mode, rel Relation) bool {
	switch rel {
	case Unrelated:
		return true
	case HeldIsDescendant:
		// "The parent objects of the container can have both read and
		// write access by another user."
		return true
	case Same, HeldIsAncestor:
		// The container and its components: readable under a read
		// lock, untouchable under a write lock.
		return held == Read && request == Read
	default:
		return false
	}
}

// Path addresses one object in the containment hierarchy.
type Path []string

// String joins the path with slashes.
func (p Path) String() string { return strings.Join(p, "/") }

// Manager errors.
var (
	ErrDeadlock = errors.New("locking: deadlock detected")
	ErrReleased = errors.New("locking: lock already released")
	ErrEmpty    = errors.New("locking: empty path")
)

// holder is one granted lock.
type holder struct {
	id   uint64
	user string
	mode Mode
	path Path
}

// node is one object in the containment tree.
type node struct {
	children map[string]*node
	holders  map[uint64]*holder
}

func newNode() *node {
	return &node{children: make(map[string]*node), holders: make(map[uint64]*holder)}
}

// Manager grants and releases hierarchical locks.
type Manager struct {
	mu      sync.Mutex
	root    *node
	nextID  uint64
	waitCh  chan struct{}
	waiting map[string]map[string]bool // waiting user -> users blocking it
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	return &Manager{
		root:    newNode(),
		waitCh:  make(chan struct{}),
		waiting: make(map[string]map[string]bool),
	}
}

// Lock is a granted lock handle.
type Lock struct {
	m    *Manager
	id   uint64
	user string
	mode Mode
	path Path
	done bool
}

// walk returns the chain of nodes from the root to the path's node,
// creating nodes as needed. Caller holds m.mu.
func (m *Manager) walk(p Path, create bool) []*node {
	chain := []*node{m.root}
	cur := m.root
	for _, seg := range p {
		next, ok := cur.children[seg]
		if !ok {
			if !create {
				return chain
			}
			next = newNode()
			cur.children[seg] = next
		}
		chain = append(chain, next)
		cur = next
	}
	return chain
}

// conflictingUsers returns the set of other users whose held locks
// forbid the request, empty when the request can be granted now. Per
// the paper's table only locks at the requested object itself or at its
// ancestors (containers holding it) can conflict; locks strictly below
// the requested node leave their parents fully accessible. Caller
// holds m.mu.
func (m *Manager) conflictingUsers(user string, p Path, mode Mode) map[string]bool {
	conflicts := make(map[string]bool)
	chain := m.walk(p, true)
	target := chain[len(chain)-1]
	for _, n := range chain[:len(chain)-1] {
		for _, h := range n.holders {
			if h.user != user && !Compatible(h.mode, mode, HeldIsAncestor) {
				conflicts[h.user] = true
			}
		}
	}
	for _, h := range target.holders {
		if h.user != user && !Compatible(h.mode, mode, Same) {
			conflicts[h.user] = true
		}
	}
	return conflicts
}

// grant installs the lock. Caller holds m.mu.
func (m *Manager) grant(user string, p Path, mode Mode) *Lock {
	m.nextID++
	h := &holder{id: m.nextID, user: user, mode: mode, path: p}
	chain := m.walk(p, true)
	chain[len(chain)-1].holders[h.id] = h
	return &Lock{m: m, id: h.id, user: user, mode: mode, path: p}
}

// wouldDeadlock reports whether blocking `user` on `blockers` closes a
// cycle in the wait-for graph. Caller holds m.mu.
func (m *Manager) wouldDeadlock(user string, blockers map[string]bool) bool {
	var visit func(u string, seen map[string]bool) bool
	visit = func(u string, seen map[string]bool) bool {
		if u == user {
			return true
		}
		if seen[u] {
			return false
		}
		seen[u] = true
		for next := range m.waiting[u] {
			if visit(next, seen) {
				return true
			}
		}
		return false
	}
	seen := make(map[string]bool)
	for b := range blockers {
		if visit(b, seen) {
			return true
		}
	}
	return false
}

// TryAcquire grants the lock immediately or reports the blocking users
// (sorted) without waiting.
func (m *Manager) TryAcquire(user string, p Path, mode Mode) (*Lock, []string, error) {
	if len(p) == 0 {
		return nil, nil, ErrEmpty
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	conflicts := m.conflictingUsers(user, p, mode)
	if len(conflicts) == 0 {
		return m.grant(user, p, mode), nil, nil
	}
	users := make([]string, 0, len(conflicts))
	for u := range conflicts {
		users = append(users, u)
	}
	sort.Strings(users)
	return nil, users, nil
}

// Acquire blocks until the lock can be granted, the context is
// cancelled, or granting would deadlock with other waiting users.
func (m *Manager) Acquire(ctx context.Context, user string, p Path, mode Mode) (*Lock, error) {
	if len(p) == 0 {
		return nil, ErrEmpty
	}
	for {
		m.mu.Lock()
		conflicts := m.conflictingUsers(user, p, mode)
		if len(conflicts) == 0 {
			delete(m.waiting, user)
			lk := m.grant(user, p, mode)
			m.mu.Unlock()
			return lk, nil
		}
		if m.wouldDeadlock(user, conflicts) {
			delete(m.waiting, user)
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %s requesting %s on %s", ErrDeadlock, user, mode, p)
		}
		m.waiting[user] = conflicts
		ch := m.waitCh
		m.mu.Unlock()
		select {
		case <-ch:
			// A release happened; retry.
		case <-ctx.Done():
			m.mu.Lock()
			delete(m.waiting, user)
			m.mu.Unlock()
			return nil, ctx.Err()
		}
	}
}

// Release returns the lock. Releasing twice fails with ErrReleased.
func (l *Lock) Release() error {
	m := l.m
	m.mu.Lock()
	defer m.mu.Unlock()
	if l.done {
		return ErrReleased
	}
	l.done = true
	chain := m.walk(l.path, false)
	delete(chain[len(chain)-1].holders, l.id)
	// Wake every waiter to re-check.
	close(m.waitCh)
	m.waitCh = make(chan struct{})
	return nil
}

// TableString renders the compatibility table, matching the package
// documentation; useful for the administrative CLI.
func TableString() string {
	var sb strings.Builder
	sb.WriteString("held \\ request   R same  W same  R comp  W comp  R parent  W parent\n")
	for _, held := range []Mode{Read, Write} {
		fmt.Fprintf(&sb, "%-16s", held.String()+" on container")
		for _, rel := range []struct {
			r Relation
			m Mode
		}{
			{Same, Read}, {Same, Write},
			{HeldIsAncestor, Read}, {HeldIsAncestor, Write},
			{HeldIsDescendant, Read}, {HeldIsDescendant, Write},
		} {
			if Compatible(held, rel.m, rel.r) {
				sb.WriteString(" yes    ")
			} else {
				sb.WriteString(" no     ")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
