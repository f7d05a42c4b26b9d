// itv-admin is the operator tool (§6.2): it inspects the cluster name
// space, queries name-service and cluster status, and drives the SSC/CSC —
// listing, starting, stopping, killing and moving services.
//
//	itv-admin [-ns host:port] list [path]     # name-space listing (Fig. 8)
//	itv-admin [-ns host:port] resolve <name>  # resolve a name to a reference
//	itv-admin [-ns host:port] status          # name-service + CSC view
//	itv-admin [-ns host:port] running <host>  # services an SSC is running
//	itv-admin [-ns host:port] kill <host> <svc>
//	itv-admin [-ns host:port] stop <host> <svc>
//	itv-admin [-ns host:port] start <host> <svc>
//	itv-admin [-ns host:port] move <svc> <host,...>
//	itv-admin metrics <host:port>             # scrape a node's obs registry
//	itv-admin events [host ...]               # merged cluster flight recorder
//	itv-admin trace <trace-id> [host ...]     # one failover's causal timeline
//	itv-admin watch [-once] [-interval 2s] [host ...]  # live RED dashboard (_health RPC)
//	itv-admin slow [host ...]                 # per-node slow-call ledgers (_slow RPC)
//	itv-admin profile [-seconds N] [-rate R] [-o file] <kind> <host>  # pull a pprof profile
//
// Cross-node timelines (events, trace) are merged in hybrid-logical-clock
// order, not wall order, so they stay causally correct even when server
// clocks disagree; pairs the clocks cannot order are marked "?~" using the
// cluster's measured offset uncertainty.
//
// Tail-latency attribution (DESIGN.md §13): `metrics` and `watch` print a
// live trace id next to each histogram's quantiles (the p99 exemplar),
// `trace` resolves it to the cluster timeline, `slow` shows which calls
// crossed the adaptive threshold and where their time went
// (queue/service/flush), and `profile` pulls a runtime profile from the
// blamed node.  Nodes that fail a scrape are rendered as explicit
// UNREACHABLE rows with the connection error class, not silently skipped.
package main

import (
	"flag"
	"log"
	"os"

	"itv/internal/admin"
	"itv/internal/orb"
	"itv/internal/transport"
)

func main() {
	nsAddr := flag.String("ns", "127.0.0.1:555", "name-service replica address")
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	ep, err := orb.NewEndpoint(transport.TCP())
	if err != nil {
		log.Fatal(err)
	}
	err = admin.Run(os.Stdout, ep, *nsAddr, flag.Args())
	ep.Close()
	if err != nil {
		log.Fatal(err)
	}
}
