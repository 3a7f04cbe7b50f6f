package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"ptguard/internal/dist"
	"ptguard/internal/harness"
)

// workerCmd is the execution half of the distributed campaign backend: a
// coordinator (any campaign subcommand run with -backend=proc or
// -backend=tcp) hands it a campaign (kind, spec, seed) over a CRC-framed
// JSONL session, and it expands the identical job set locally and executes
// the keys it is dealt.
//
// With no flags it serves exactly one session over stdin/stdout — the
// mode proc coordinators spawn it in, re-executing their own binary. With
// -listen it serves TCP sessions instead, one per connection, so campaigns
// can shard across machines:
//
//	ptguard worker -listen :9723            # on each worker box
//	ptguard sweep -backend tcp -connect hostA:9723,hostB:9723 ...
func workerCmd(fs *flag.FlagSet) func() error {
	listen := fs.String("listen", "", "serve TCP sessions on this address (host:port) instead of one stdio session")
	listKinds := fs.Bool("list-kinds", false, "print the registered campaign spec kinds and exit")

	return func() error {
		if *listKinds {
			for _, k := range harness.Kinds() {
				fmt.Println(k)
			}
			return nil
		}
		if *listen == "" {
			return dist.Serve(os.Stdin, os.Stdout)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ptguard worker: listening on %s\n", ln.Addr())
		for {
			conn, err := ln.Accept()
			if err != nil {
				return fmt.Errorf("accept: %w", err)
			}
			go func() {
				defer conn.Close()
				if err := dist.Serve(conn, conn); err != nil {
					fmt.Fprintf(os.Stderr, "ptguard worker: session %s: %v\n", conn.RemoteAddr(), err)
				}
			}()
		}
	}
}
