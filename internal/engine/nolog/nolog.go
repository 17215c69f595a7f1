// Package nolog implements the unsafe "No Logging" baseline from the
// paper's Figure 1: transactions edit objects in place with isolation
// (object locks) and durability (flushes at commit) but no atomicity — a
// crash or abort mid-transaction leaves torn state. It exists purely to
// measure the cost that logging mechanisms add on top.
package nolog

import (
	"kaminotx/internal/engine"
	"kaminotx/internal/heap"
	"kaminotx/internal/intentlog"
	"kaminotx/internal/nvm"
)

// Engine is the no-logging baseline engine: the shared skeleton with no
// log under it and no mechanism on it. The audit policy for "nolog" checks
// nothing — this baseline is unsafe by design — but its events still appear
// in exported traces.
type Engine struct{ *engine.Base }

// New creates an engine over a freshly formatted heap region.
func New(reg *nvm.Region) (*Engine, error) {
	b, err := engine.Format("nolog", engine.Regions{Main: reg}, intentlog.Config{})
	if err != nil {
		return nil, err
	}
	return &Engine{b}, nil
}

// Open attaches to an existing heap region. There is nothing to recover —
// that is the point of this baseline — beyond the heap's free lists.
func Open(reg *nvm.Region) (*Engine, error) {
	b, err := engine.Attach("nolog", engine.Regions{Main: reg})
	if err != nil {
		return nil, err
	}
	if err := b.Reopen(nil, nil); err != nil {
		return nil, err
	}
	return &Engine{b}, nil
}

// Recover implements engine.Engine; no-op.
func (e *Engine) Recover() error { return nil }

// Begin implements engine.Engine.
func (e *Engine) Begin() (engine.Tx, error) {
	bt, err := e.BeginTx()
	if err != nil {
		return nil, err
	}
	return &tx{bt}, nil
}

type tx struct{ engine.BaseTx }

// Add locks and validates obj; nothing is recorded.
func (t *tx) Add(obj heap.ObjID) error {
	cls, ok, err := t.Declare(obj)
	if !ok {
		return err
	}
	return t.Admit(obj, cls, nil)
}

// Abort releases locks but cannot restore anything: this baseline has no
// copy of the old data. Modified objects keep their torn contents.
func (t *tx) Abort() error { return t.AbortWith(nil) }
