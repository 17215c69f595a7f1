package bench

import (
	"fmt"
	"io"
	"sync"

	"kaminotx/internal/obs"
	"kaminotx/kamino"
	chainpkg "kaminotx/kamino/chain"
)

// obsAgg accumulates observability registries across the many short-lived
// pools one experiment creates. Registries sharing a label merge: counters
// add, gauges are sampled into counters, phase histograms merge, so the
// final breakdown attributes latency over the whole experiment.
//
// Absorbing is idempotent per source registry: obs.Registry.Absorb adds
// counter values wholesale, so folding the same registry in twice (an
// experiment retrying a phase, or collect followed by a chain-wide
// collectChain over the same replicas) would double every count. The mark
// of having been absorbed lives on the source, as its mergedMark counter,
// and not in a set here: a registry reaches its pool's regions through its
// gauge closures, so a set of absorbed registries kept every closed pool of
// an experiment alive (5 GB live in fig12 at 20,000 keys).
type obsAgg struct {
	mu    sync.Mutex
	order []string
	regs  map[string]*obs.Registry
}

// mergedMark names the counter absorb leaves on a source; summed into the
// accumulator it reads as the number of registries merged under the label.
const mergedMark = "registries_merged"

func newObsAgg() *obsAgg {
	return &obsAgg{regs: make(map[string]*obs.Registry)}
}

func (a *obsAgg) absorb(src *obs.Registry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	mark := src.Counter(mergedMark)
	if mark.Load() != 0 {
		return
	}
	mark.Inc()
	label := src.Name()
	acc, ok := a.regs[label]
	if !ok {
		acc = obs.New(label)
		a.regs[label] = acc
		a.order = append(a.order, label)
	}
	acc.Absorb(src)
}

func (a *obsAgg) write(w io.Writer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.order) == 0 {
		return
	}
	fmt.Fprintf(w, "\n--- phase breakdown (per engine, cumulative incl. preload) ---\n")
	for _, label := range a.order {
		a.regs[label].Snapshot().WriteBreakdown(w)
	}
}

// collect drains a pool's asynchronous work and folds its registry into the
// experiment accumulator. Call it before Close, after the measured run.
func (c Config) collect(p *kamino.Pool) {
	p.Drain()
	c.agg.absorb(p.Obs())
}

// collectChain does the same for a replicated cluster: each replica
// contributes its chain-protocol registry and its engine registry.
func (c Config) collectChain(cl *chainpkg.Cluster) {
	for _, r := range cl.Obs() {
		c.agg.absorb(r)
	}
}

// printBreakdown writes the per-phase latency attribution accumulated over
// the experiment's pools, sourced from the engines' obs registries.
func (c Config) printBreakdown() {
	c.agg.write(c.Out)
}
