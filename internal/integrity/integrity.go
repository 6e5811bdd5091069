// Package integrity maintains the paper's referential integrity diagram
// (section 3): a labeled graph over the Web document object kinds where
// each link carries a reference multiplicity — "+" for one-or-more, "*"
// for zero-or-more. When a source object is updated the system triggers
// alert messages along every outgoing link so the user revisits the
// dependent objects: "if a script SCI is updated, its corresponding
// implementations should be updated, which further triggers the changes
// of one or more HTML programs, zero or more multimedia resources, and
// some control programs."
package integrity

import (
	"errors"
	"fmt"
	"sync"
)

// Multiplicity is the reference multiplicity on a diagram link.
type Multiplicity int

// Multiplicities: One is an implicit single reference, Plus is the
// paper's "+" (one or more), Star is the paper's "*" (zero or more).
const (
	One Multiplicity = iota + 1
	Plus
	Star
)

// String renders the superscript notation used in the paper.
func (m Multiplicity) String() string {
	switch m {
	case One:
		return "1"
	case Plus:
		return "+"
	case Star:
		return "*"
	default:
		return fmt.Sprintf("Multiplicity(%d)", int(m))
	}
}

// Link is one labeled edge of the diagram.
type Link struct {
	From    string // source object kind
	To      string // destination object kind
	Label   string
	Mult    Multiplicity
	Message string // alert message template (fmt with source id, target id)
}

// Diagram errors.
var (
	ErrUnknownKind = errors.New("integrity: unknown object kind")
	ErrDupLink     = errors.New("integrity: duplicate link")
)

// Diagram is the referential integrity diagram. It is safe for
// concurrent reads after construction.
type Diagram struct {
	nodes map[string]bool
	links map[string][]Link // keyed by From
}

// NewDiagram returns an empty diagram.
func NewDiagram() *Diagram {
	return &Diagram{nodes: make(map[string]bool), links: make(map[string][]Link)}
}

// AddNode registers an object kind.
func (d *Diagram) AddNode(kind string) {
	d.nodes[kind] = true
}

// AddLink registers a labeled edge between two known kinds.
func (d *Diagram) AddLink(l Link) error {
	if !d.nodes[l.From] {
		return fmt.Errorf("%w: %s", ErrUnknownKind, l.From)
	}
	if !d.nodes[l.To] {
		return fmt.Errorf("%w: %s", ErrUnknownKind, l.To)
	}
	for _, existing := range d.links[l.From] {
		if existing.To == l.To && existing.Label == l.Label {
			return fmt.Errorf("%w: %s -[%s]-> %s", ErrDupLink, l.From, l.Label, l.To)
		}
	}
	if l.Message == "" {
		l.Message = fmt.Sprintf("%s %%s changed; review %s %%s", l.From, l.To)
	}
	d.links[l.From] = append(d.links[l.From], l)
	return nil
}

// Resolver finds the concrete dependent objects of a given object along
// one kind of link. Implementations query the document database.
type Resolver interface {
	// Dependents returns the ids of targetKind objects that reference
	// the (kind, id) object.
	Dependents(kind, id, targetKind string) ([]string, error)
}

// Alert is one update notice produced by propagation.
type Alert struct {
	ID         int
	SourceKind string
	SourceID   string
	TargetKind string
	TargetID   string
	Label      string
	Mult       Multiplicity
	Message    string
	Depth      int // 1 = direct dependent, 2 = dependent of dependent, ...
}

// Propagate walks the diagram breadth-first from an updated object and
// returns one alert per affected dependent object. Each (kind, id) pair
// is visited once, so diagrams with converging or cyclic links
// terminate.
func (d *Diagram) Propagate(r Resolver, kind, id string) ([]Alert, error) {
	if !d.nodes[kind] {
		return nil, fmt.Errorf("%w: %s", ErrUnknownKind, kind)
	}
	type item struct {
		kind, id string
		depth    int
	}
	var alerts []Alert
	visited := map[string]bool{kind + "\x00" + id: true}
	queue := []item{{kind: kind, id: id}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, l := range d.links[cur.kind] {
			deps, err := r.Dependents(cur.kind, cur.id, l.To)
			if err != nil {
				return nil, err
			}
			for _, depID := range deps {
				key := l.To + "\x00" + depID
				if visited[key] {
					continue
				}
				visited[key] = true
				alerts = append(alerts, Alert{
					SourceKind: cur.kind,
					SourceID:   cur.id,
					TargetKind: l.To,
					TargetID:   depID,
					Label:      l.Label,
					Mult:       l.Mult,
					Message:    fmt.Sprintf(l.Message, cur.id, depID),
					Depth:      cur.depth + 1,
				})
				queue = append(queue, item{kind: l.To, id: depID, depth: cur.depth + 1})
			}
		}
	}
	return alerts, nil
}

// Queue buffers pending alerts per user until acknowledged, the way the
// paper's system "triggers a message which alerts the user to update
// the destination object".
type Queue struct {
	mu      sync.Mutex
	nextID  int
	pending map[string][]Alert // user -> alerts
}

// NewQueue returns an empty alert queue.
func NewQueue() *Queue {
	return &Queue{pending: make(map[string][]Alert)}
}

// Push delivers alerts to a user's queue, assigning ids.
func (q *Queue) Push(user string, alerts []Alert) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, a := range alerts {
		q.nextID++
		a.ID = q.nextID
		q.pending[user] = append(q.pending[user], a)
	}
}

// Pending lists a user's unacknowledged alerts in delivery order.
func (q *Queue) Pending(user string) []Alert {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Alert, len(q.pending[user]))
	copy(out, q.pending[user])
	return out
}

// AckAll clears a user's queue, returning how many alerts were dropped.
func (q *Queue) AckAll(user string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.pending[user])
	delete(q.pending, user)
	return n
}
