// Liveclient: the smallest useful discoverynode client. It dials a
// running node with the binary wire codec, publishes a pointer under a
// named key, looks it up, inspects the node's stats, and deletes the
// object again.
//
// Start a one-member cluster first, then run the client:
//
//	go run ./cmd/discoverynode -listen :7800 -peer-listen 127.0.0.1:7900 \
//	    -bootstrap 127.0.0.1:7900 -replication 1 &
//	go run ./examples/liveclient -addr localhost:7800
package main

import (
	"flag"
	"fmt"
	"log"

	discovery "discovery"
	"discovery/internal/server"
)

func main() {
	addr := flag.String("addr", "localhost:7800", "discoverynode client address")
	name := flag.String("name", "dataset-v2", "object name to publish")
	flag.Parse()

	c, err := server.Dial(*addr)
	if err != nil {
		log.Fatalf("liveclient: dial %s: %v (is discoverynode running?)", *addr, err)
	}
	defer c.Close()

	key := discovery.NewID(*name)
	const origin = 0 // publish as member 0; only that origin may delete

	ins, err := c.Insert(origin, key, []byte("tcp://node0:9000/"+*name))
	if err != nil {
		log.Fatalf("liveclient: insert: %v", err)
	}
	fmt.Printf("insert %q: %d entry stored\n", *name, ins.Replicas)

	res, err := c.Lookup(server.OriginAuto, key)
	if err != nil {
		log.Fatalf("liveclient: lookup: %v", err)
	}
	fmt.Printf("lookup %q: found=%v\n", *name, res.Found)

	st, err := c.Stats()
	if err != nil {
		log.Fatalf("liveclient: stats: %v", err)
	}
	fmt.Printf("node: %d shards, %d inserts / %d lookups served (%d found)\n",
		st.Shards, st.Inserts, st.Lookups, st.Found)

	removed, err := c.Delete(origin, key)
	if err != nil {
		log.Fatalf("liveclient: delete: %v", err)
	}
	fmt.Printf("delete %q: removed %d entry\n", *name, removed)
}
