package bamboo_test

import (
	"fmt"

	"bamboo"
)

// Open takes the protocol from Options.Protocol and everything else from
// the embedded Config — here the live metrics endpoint on a free port,
// whose reports name the protocol that runs.
func ExampleOpen() {
	opts := bamboo.Options{Protocol: bamboo.Silo}
	opts.MetricsAddr = ":0"
	db := bamboo.Open(opts)
	defer db.Close()
	fmt.Println(db.Protocol(), db.Internal().LiveReport().Protocol, db.MetricsAddr() != "")
	// Output: SILO SILO true
}
