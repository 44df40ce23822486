// Remote: the full client/server deployment of Fig. 5.
//
// server_storage runs as a TCP service (in-process here for a self-
// contained example; run cmd/laoramserve for a real split). The trainer
// client connects over the network — the socket is the paper's red line,
// the insecure channel where the adversary sees every bucket address — and
// performs oblivious accesses plus a look-ahead session against it. Rows
// are sealed with AES-CTR before leaving the client, so the server holds
// only ciphertext at addresses chosen uniformly at random.
//
// The client is built with NewContext: cancelling the context closes the
// connection, which is how a trainer stalled on a dead server is unwound
// (see the Train documentation).
//
//	go run ./examples/remote
package main

import (
	"context"
	"fmt"
	"log"

	laoram "repro"
	"repro/internal/oram"
	"repro/internal/remote"
)

func main() {
	const entries = 1 << 12
	const blockSize = 128

	// --- Server side (would be cmd/laoramserve on another machine) ---
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits:  oram.LeafBitsFor(entries),
		LeafZ:     4,
		RootZ:     8,
		Profile:   oram.ProfileLinear, // fat tree
		BlockSize: blockSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	store, err := oram.NewPayloadStore(g, nil) // server sees sealed bytes as opaque payloads
	if err != nil {
		log.Fatal(err)
	}
	counting := oram.NewCountingStore(store, nil)
	srv := remote.NewServer(counting, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("server_storage listening on %s — tree %s\n", addr, g)

	// --- Client side (the trainer GPU of Fig. 5) ---
	// The context governs the connection: cancel() would close it and
	// fail every in-flight request, unblocking a stalled trainer.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db, err := laoram.NewContext(ctx, laoram.Options{
		Entries:     entries,
		RemoteAddrs: []string{addr},
		Seed:        9,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("client connected; server reports tree %q\n", db.Describe())

	if err := db.Load(entries, func(id uint64) []byte {
		row := make([]byte, blockSize)
		copy(row, fmt.Sprintf("remote-row-%d", id))
		return row
	}); err != nil {
		log.Fatal(err)
	}
	db.ResetStats()

	// Oblivious accesses over the wire.
	if err := db.Write(7, padded("updated over tcp", blockSize)); err != nil {
		log.Fatal(err)
	}
	row, err := db.Read(7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read row 7 over TCP: %q\n", trimZero(row))

	// A streaming look-ahead run against the remote store: windows are
	// preprocessed client-side while earlier windows execute over the
	// wire, and the whole run is cancellable through ctx.
	source, err := laoram.FromTrace(laoram.TraceConfig{
		Kind: laoram.TraceKaggle, N: entries, Count: 2048, Seed: 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	touched := 0
	if _, err := db.Train(ctx, laoram.TrainOptions{
		Source:     source,
		Superblock: 4,
		Visit: func(id uint64, payload []byte) []byte {
			touched++
			return nil
		},
	}); err != nil {
		log.Fatal(err)
	}

	st := db.Stats()
	c := counting.Counters()
	fmt.Printf("\nsession: %d row visits via %d path reads over the network\n", touched, st.PathReads)
	fmt.Printf("server observed: %d bucket reads, %d bucket writes, %.2f MB on the wire\n",
		c.BucketReads, c.BucketWrites, float64(c.BytesRead+c.BytesWritten)/(1<<20))
	fmt.Println("…and nothing else: addresses are uniform paths, contents are ciphertext.")
}

func padded(s string, n int) []byte {
	b := make([]byte, n)
	copy(b, s)
	return b
}

func trimZero(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
