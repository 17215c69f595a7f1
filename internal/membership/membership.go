// Package membership is the chain's view manager — the role Zookeeper
// plays in the paper (§5.3): the single source of truth for chain
// membership. Every membership change increments the view id; replicas
// stamp messages with their view and reject stale ones; a quickly rebooted
// replica must revalidate its view before rejoining.
package membership

import (
	"errors"
	"fmt"
	"sync"

	"kaminotx/internal/transport"
)

// View is one immutable chain configuration.
type View struct {
	ID      uint64
	Members []transport.NodeID // Members[0] = head, last = tail
}

// Head returns the head node.
func (v View) Head() transport.NodeID { return v.Members[0] }

// Tail returns the tail node.
func (v View) Tail() transport.NodeID { return v.Members[len(v.Members)-1] }

// Index returns n's chain position, or -1.
func (v View) Index(n transport.NodeID) int {
	for i, m := range v.Members {
		if m == n {
			return i
		}
	}
	return -1
}

// Predecessor returns the node before n (ok=false at the head).
func (v View) Predecessor(n transport.NodeID) (transport.NodeID, bool) {
	i := v.Index(n)
	if i <= 0 {
		return "", false
	}
	return v.Members[i-1], true
}

// Successor returns the node after n (ok=false at the tail).
func (v View) Successor(n transport.NodeID) (transport.NodeID, bool) {
	i := v.Index(n)
	if i < 0 || i == len(v.Members)-1 {
		return "", false
	}
	return v.Members[i+1], true
}

// clone copies the view so callers can't mutate manager state.
func (v View) clone() View {
	return View{ID: v.ID, Members: append([]transport.NodeID(nil), v.Members...)}
}

// Manager tracks one chain's membership. Watchers are notified on every
// view change.
type Manager struct {
	mu       sync.Mutex
	view     View
	watchers []watcher
	watchSeq uint64
}

// watcher is one registered view-change callback with its cancel handle.
type watcher struct {
	id uint64
	fn func(View)
}

// Errors.
var (
	ErrNotMember = errors.New("membership: node is not a member")
	ErrTooSmall  = errors.New("membership: chain would fall below minimum size")
)

// New creates a manager with an initial chain.
func New(members []transport.NodeID) (*Manager, error) {
	if len(members) == 0 {
		return nil, errors.New("membership: empty chain")
	}
	seen := map[transport.NodeID]bool{}
	for _, m := range members {
		if seen[m] {
			return nil, fmt.Errorf("membership: duplicate member %s", m)
		}
		seen[m] = true
	}
	return &Manager{view: View{ID: 1, Members: append([]transport.NodeID(nil), members...)}}, nil
}

// View returns the current view.
func (m *Manager) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view.clone()
}

// Watch registers a callback invoked (without the manager lock) after each
// view change with the new view. The returned cancel function removes the
// watcher; a replaced replica must cancel before a new incarnation with the
// same NodeID registers, or view changes would keep driving the dead one.
func (m *Manager) Watch(fn func(View)) (cancel func()) {
	m.mu.Lock()
	m.watchSeq++
	id := m.watchSeq
	m.watchers = append(m.watchers, watcher{id: id, fn: fn})
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		for i, w := range m.watchers {
			if w.id == id {
				m.watchers = append(m.watchers[:i], m.watchers[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
	}
}

// changed notifies every watcher of the new view. The watcher slice is
// snapshotted under mu — Watch appends concurrently — and the callbacks run
// without the lock so they may call back into the manager.
func (m *Manager) changed(v View) {
	m.mu.Lock()
	ws := append([]watcher(nil), m.watchers...)
	m.mu.Unlock()
	for _, w := range ws {
		w.fn(v.clone())
	}
}

// ReportFailure removes node from the chain and publishes a new view.
// The paper's Kamino-Tx-Chain needs at least two live replicas to retain
// recovery capability; removal below two members is refused.
func (m *Manager) ReportFailure(node transport.NodeID) (View, error) {
	m.mu.Lock()
	idx := m.view.Index(node)
	if idx < 0 {
		v := m.view.clone()
		m.mu.Unlock()
		return v, ErrNotMember
	}
	if len(m.view.Members) <= 2 {
		v := m.view.clone()
		m.mu.Unlock()
		return v, ErrTooSmall
	}
	members := make([]transport.NodeID, 0, len(m.view.Members)-1)
	for _, n := range m.view.Members {
		if n != node {
			members = append(members, n)
		}
	}
	m.view = View{ID: m.view.ID + 1, Members: members}
	v := m.view.clone()
	m.mu.Unlock()
	m.changed(v)
	return v, nil
}

// AddTail appends a new replica at the tail (how repaired or replacement
// nodes join, after state transfer).
func (m *Manager) AddTail(node transport.NodeID) (View, error) {
	m.mu.Lock()
	if m.view.Index(node) >= 0 {
		v := m.view.clone()
		m.mu.Unlock()
		return v, fmt.Errorf("membership: %s already a member", node)
	}
	m.view = View{ID: m.view.ID + 1, Members: append(append([]transport.NodeID(nil), m.view.Members...), node)}
	v := m.view.clone()
	m.mu.Unlock()
	m.changed(v)
	return v, nil
}

// Rejoin validates a quickly rebooted replica (§5.3): the node presents
// the view id it believes is current. If it is still a member, the current
// view is returned (possibly unchanged); if its view is stale it learns the
// new one; if it was removed, ErrNotMember tells it to rejoin via AddTail
// after state transfer.
func (m *Manager) Rejoin(node transport.NodeID, believedView uint64) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view.clone()
	if m.view.Index(node) < 0 {
		return v, ErrNotMember
	}
	if believedView > m.view.ID {
		return v, fmt.Errorf("membership: node %s claims future view %d (current %d)", node, believedView, m.view.ID)
	}
	return v, nil
}
