package kamino_test

import (
	"errors"
	"fmt"
	"log"
	"math"
	"strings"

	"kaminotx/kamino"
)

// The paper's Figure 4 list node: key, value, and persistent next/prev
// pointers. The pool's root object anchors the list: head at 0, tail at 8.
const (
	offKey, offValue, offNext, offPrev = 0, 8, 16, 24
	nodeSize                           = 32
	rootHead, rootTail                 = 0, 8
)

// insert is Figure 4's TxInsert inside tx: it allocates a node and splices
// it in before the first node with a larger key. Every object it changes —
// the new node, its neighbours, the anchor — joins one transaction.
func insert(tx *kamino.Tx, anchor kamino.ObjID, key int64, value float64) error {
	var prev kamino.ObjID
	next, err := tx.Ptr(anchor, rootHead)
	for err == nil && next != kamino.Nil {
		var k uint64
		if k, err = tx.Uint64(next, offKey); err != nil || int64(k) > key {
			break
		}
		prev = next
		next, err = tx.Ptr(next, offNext)
	}
	if err != nil {
		return err
	}
	node, err := tx.Alloc(nodeSize)
	if err != nil {
		return err
	}
	err = errors.Join(tx.SetUint64(node, offKey, uint64(key)),
		tx.SetUint64(node, offValue, math.Float64bits(value)),
		tx.SetPtr(node, offNext, next), tx.SetPtr(node, offPrev, prev))
	// splice points a neighbour at the node, or the anchor where there is
	// no neighbour; either joins the transaction first.
	splice := func(neighbour kamino.ObjID, off, anchorOff int) {
		if neighbour == kamino.Nil {
			neighbour, off = anchor, anchorOff
		}
		if err == nil {
			err = tx.Add(neighbour)
		}
		if err == nil {
			err = tx.SetPtr(neighbour, off, node)
		}
	}
	splice(prev, offNext, rootHead)
	splice(next, offPrev, rootTail)
	return err
}

// printList walks the list forwards by next and backwards by prev.
func printList(pool *kamino.Pool) {
	err := pool.View(func(tx *kamino.Tx) error {
		for _, dir := range []struct{ start, step int }{{rootHead, offNext}, {rootTail, offPrev}} {
			var nodes []string
			cur, err := tx.Ptr(pool.Root(), dir.start)
			for err == nil && cur != kamino.Nil {
				var k, v uint64
				if k, err = tx.Uint64(cur, offKey); err == nil {
					v, err = tx.Uint64(cur, offValue)
				}
				nodes = append(nodes, fmt.Sprintf("%d:%g", int64(k), math.Float64frombits(v)))
				if err == nil {
					cur, err = tx.Ptr(cur, dir.step)
				}
			}
			if err != nil {
				return err
			}
			fmt.Println(strings.Join(nodes, " "))
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

// crashMidTx runs fn in a transaction and cuts the power before it commits.
func crashMidTx(pool *kamino.Pool, fn func(*kamino.Tx) error) {
	tx, err := pool.Begin()
	if err == nil {
		err = fn(tx)
	}
	if err == nil {
		err = pool.Crash()
	}
	if err != nil {
		log.Fatal(err)
	}
}

// The paper's Figure 4: a sorted doubly linked list on a Kamino-Tx-Simple
// pool, one multi-object transaction per insert. An insert whose callback
// fails leaves nothing behind, and a power failure keeps every committed
// insert and drops the one in flight.
func Example_linkedList() {
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 1 << 20, Strict: true})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	for _, k := range []int64{30, 10, 20} {
		if err := pool.Update(func(tx *kamino.Tx) error {
			return insert(tx, pool.Root(), k, float64(k)/4)
		}); err != nil {
			log.Fatal(err)
		}
	}
	printList(pool)

	err = pool.Update(func(tx *kamino.Tx) error {
		if err := insert(tx, pool.Root(), 15, 99); err != nil {
			return err
		}
		return errors.New("changed my mind")
	})
	fmt.Println("aborted insert:", err)
	printList(pool)

	crashMidTx(pool, func(tx *kamino.Tx) error {
		return insert(tx, pool.Root(), 25, 99)
	})
	fmt.Println("after the crash:")
	printList(pool)
	// Output:
	// 10:2.5 20:5 30:7.5
	// 30:7.5 20:5 10:2.5
	// aborted insert: changed my mind
	// 10:2.5 20:5 30:7.5
	// 30:7.5 20:5 10:2.5
	// after the crash:
	// 10:2.5 20:5 30:7.5
	// 30:7.5 20:5 10:2.5
}

// A bank whose transfers are two-object transactions: the total balance
// holds through a transfer that aborts and through a power failure in the
// middle of one.
func Example_bank() {
	pool, err := kamino.Create(kamino.Options{Mode: kamino.ModeSimple, HeapSize: 1 << 20, Strict: true})
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()
	accounts := make([]kamino.ObjID, 4)
	if err := pool.Update(func(tx *kamino.Tx) error {
		for i := range accounts {
			if accounts[i], err = tx.Alloc(8); err == nil {
				err = tx.SetUint64(accounts[i], 0, 100)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}

	// move deposits first, so a failed withdrawal has something to undo.
	move := func(tx *kamino.Tx, from, to kamino.ObjID, amount uint64) error {
		if err := errors.Join(tx.Add(from), tx.Add(to)); err != nil {
			return err
		}
		a, errA := tx.Uint64(from, 0)
		b, errB := tx.Uint64(to, 0)
		if err := errors.Join(errA, errB, tx.SetUint64(to, 0, b+amount)); err != nil {
			return err
		}
		if a < amount {
			return errors.New("insufficient funds")
		}
		return tx.SetUint64(from, 0, a-amount)
	}
	transfer := func(from, to int, amount uint64) error {
		return pool.Update(func(tx *kamino.Tx) error {
			return move(tx, accounts[from], accounts[to], amount)
		})
	}
	report := func(when string) {
		var total uint64
		if err := pool.View(func(tx *kamino.Tx) error {
			for _, a := range accounts {
				b, err := tx.Uint64(a, 0)
				if err != nil {
					return err
				}
				fmt.Print(b, " ")
				total += b
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("total %d %s\n", total, when)
	}

	if err := transfer(0, 1, 70); err != nil {
		log.Fatal(err)
	}
	report("after a transfer")
	fmt.Println("transfer:", transfer(0, 2, 50))
	report("after an aborted transfer")

	crashMidTx(pool, func(tx *kamino.Tx) error {
		return move(tx, accounts[1], accounts[3], 120)
	})
	report("after a crash mid-transfer")
	// Output:
	// 30 170 100 100 total 400 after a transfer
	// transfer: insufficient funds
	// 30 170 100 100 total 400 after an aborted transfer
	// 30 170 100 100 total 400 after a crash mid-transfer
}
