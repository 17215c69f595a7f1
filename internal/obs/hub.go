package obs

import (
	"strings"
	"sync"
)

// Hub is the labelled list of live registries behind PromHandler: a
// process publishes each registry it owns (the engine's, the server's)
// under a label, and /metrics renders whatever is published at scrape
// time. Set replaces any previous registry under the same label, so the
// endpoint always reflects the most recent owner.
type Hub struct {
	mu    sync.Mutex
	regs  map[string]*Registry
	order []string
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{regs: make(map[string]*Registry)}
}

// Set publishes r under label, replacing any previous registry there.
func (h *Hub) Set(label string, r *Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.regs[label]; !ok {
		h.order = append(h.order, label)
	}
	h.regs[label] = r
}

// snapshots captures the published registries whose label contains filter
// (all of them when filter is empty), in publication order.
func (h *Hub) snapshots(filter string) []Snapshot {
	h.mu.Lock()
	var labels []string
	for _, l := range h.order {
		if filter == "" || strings.Contains(l, filter) {
			labels = append(labels, l)
		}
	}
	regs := make([]*Registry, len(labels))
	for i, l := range labels {
		regs[i] = h.regs[l]
	}
	h.mu.Unlock()
	out := make([]Snapshot, len(regs))
	for i, r := range regs {
		out[i] = r.Snapshot()
		out[i].Name = labels[i]
	}
	return out
}
