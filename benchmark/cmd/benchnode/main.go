// Command benchnode is the system under test: cmd/sr3node/main.go plus
// the three bench component kinds (package kinds) and one extra listener
// that serves their digests to the harness. Every other line of the
// daemon — cluster, stream, state, shard, transport — is the stock code
// with stock defaults.
//
// Usage: benchnode -bench-listen 127.0.0.1:PORT <sr3node flags>
package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"sr3/benchmark/kinds"
	"sr3/internal/cluster"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// cluster.ParseNodeConfig rejects flags it does not know, so the
	// bench listener's address is taken off the front first.
	if len(args) < 2 || args[0] != "-bench-listen" {
		fmt.Fprintln(os.Stderr, "benchnode: usage: benchnode -bench-listen ADDR <sr3node flags>")
		return 2
	}
	benchAddr, args := args[1], args[2:]
	host := &kinds.Host{}
	host.Register()
	cfg, err := cluster.ParseNodeConfig(args, os.Getenv)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 2
	}
	ln, err := net.Listen("tcp", benchAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	node, err := cluster.StartNode(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	srv := &http.Server{Handler: host.Handler(node)}
	go func() { _ = srv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "benchnode: %v, shutting down\n", s)
	signal.Stop(sig)
	_ = srv.Close()
	node.Stop()
	return 0
}
