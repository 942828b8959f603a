// Command ppfstored serves a PPFS simulation-store directory over HTTP,
// making one machine's content-addressed result/snapshot store the
// shared backend of a distributed sweep fleet.
//
// Usage:
//
//	ppfstored -addr :9401 -dir shared-store
//
// The wire surface is the store's own entry encoding: GET (or HEAD)
// /ppfs/{r|w}/<64-hex> returns the raw sealed entry (404 = miss), and
// PUT stores one after it unseals (magic, version, lengths and CRC-32;
// see snap.Unseal). Anything malformed is rejected at ingress, and
// readers fully re-validate on load, so a corrupt upload can only ever
// cost a cold re-run, never wrong results. Clients are the stores
// internal/simstore.NewRemote returns (experiments -storeurl) and the
// sweep fabric's workers.
package main

import (
	"flag"
	"log"
	"net/http"

	"repro/internal/simstore"
)

func main() {
	addr := flag.String("addr", ":9401", "HTTP listen address")
	dir := flag.String("dir", "ppfs-store", "store directory (created if missing)")
	flag.Parse()
	st, err := simstore.Open(*dir)
	if err != nil {
		log.Fatalf("ppfstored: opening store %s: %v", *dir, err)
	}
	log.Printf("ppfstored: serving %s on %s", *dir, *addr)
	log.Fatal(http.ListenAndServe(*addr, simstore.Handler(st)))
}
