// Package halving holds the one rule the tree's batch executors share.
package halving

// Run applies run to batch as one unit and, when that fails and the
// batch has more than one member, to each half in turn, down to single
// members. It is the rule every batch executor in the tree uses to turn
// "these operations as one transaction" into per-operation outcomes: a
// combined transaction fails when one member aborts or the write set
// overflows a log slot, and halving isolates the culprit in O(log n)
// retries while the rest still share transactions. split is called once per
// failed multi-member attempt. The error of a single-member run stops the
// recursion and is returned; a run that wants the remaining members tried
// records that member's error itself and returns nil.
func Run[T any](batch []T, run func([]T) error, split func()) error {
	err := run(batch)
	if err == nil || len(batch) == 1 {
		return err
	}
	split()
	mid := len(batch) / 2
	if err := Run(batch[:mid], run, split); err != nil {
		return err
	}
	return Run(batch[mid:], run, split)
}
