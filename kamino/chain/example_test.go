package chain_test

import (
	"fmt"
	"log"

	"kaminotx/kamino/chain"
)

// A three-replica Kamino-Tx-Chain: a put commits at every replica before
// the tail acknowledges it, a get reads the tail, and a middle replica
// that loses power comes back through the quick-reboot protocol (paper
// §5.3) without losing the value.
func Example() {
	cluster, err := chain.New(chain.Options{Replicas: 3, HeapSize: 8 << 20, Strict: true})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Println(cluster.Members())

	if err := cluster.Put(7, []byte("seven")); err != nil {
		log.Fatal(err)
	}
	v, ok, err := cluster.Get(7)
	fmt.Printf("get(7) = %q %v %v\n", v, ok, err)

	if err := cluster.RebootReplica(1); err != nil {
		log.Fatal(err)
	}
	if err := cluster.Put(8, []byte("eight")); err != nil {
		log.Fatal(err)
	}
	v, ok, err = cluster.Get(7)
	fmt.Printf("after rebooting the middle, get(7) = %q %v %v\n", v, ok, err)
	fmt.Println(cluster.Members(), cluster.Err())
	// Output:
	// [replica-0 replica-1 replica-2]
	// get(7) = "seven" true <nil>
	// after rebooting the middle, get(7) = "seven" true <nil>
	// [replica-0 replica-1 replica-2] <nil>
}
