// Command gencorpus regenerates the FuzzWireDecode seed corpus under
// internal/cluster/testdata/fuzz/FuzzWireDecode: one valid frame of
// every wire kind plus truncated, garbled and oversized variants, so
// fuzzing (and the seed-only CI run) starts with coverage past the
// frame-header checks. Run from the repository root:
//
//	go run ./internal/cluster/testdata/gencorpus
package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"copse/internal/bgv"
	"copse/internal/cluster"
	"copse/internal/core"
	"copse/internal/he/hebgv"
	"copse/internal/model"
)

func main() {
	dir := filepath.Join("internal", "cluster", "testdata", "fuzz", "FuzzWireDecode")
	if _, err := os.Stat(filepath.Join("internal", "cluster")); err != nil {
		log.Fatalf("run from the repository root: %v", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}

	// Same deliberately tiny parameter set as the golden wire tests
	// (N=16) so the corpus stays a few kilobytes per file.
	params := bgv.Params{LogN: 4, T: 65537, PrimeBits: 40, Levels: 3, SpecialPrimes: 3}
	backend, err := hebgv.New(hebgv.Config{Params: params, RotationSteps: []int{3, -2}, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer backend.Close()

	seeds := map[string][]byte{}

	var pb bytes.Buffer
	must(cluster.EncodeParams(&pb, params))
	seeds["params"] = pb.Bytes()

	var kb bytes.Buffer
	must(cluster.EncodeKeyMaterial(&kb, backend.PublicMaterial()))
	seeds["keymaterial"] = kb.Bytes()

	ct, err := backend.Encrypt([]uint64{5, 0, 1, 3, 2, 7, 6, 4})
	if err != nil {
		log.Fatal(err)
	}
	raw, depth, err := backend.ExportCiphertext(ct)
	if err != nil {
		log.Fatal(err)
	}
	var cb bytes.Buffer
	must(cluster.EncodeCiphertexts(&cb, []cluster.WireCiphertext{{Ct: raw, Depth: depth}}))
	seeds["ciphertexts"] = cb.Bytes()

	compiled, err := core.Compile(model.Figure1(), core.Options{Slots: 1024})
	if err != nil {
		log.Fatal(err)
	}
	var mb bytes.Buffer
	must(cluster.EncodeMeta(&mb, &compiled.Meta))
	seeds["meta"] = mb.Bytes()

	// Hostile variants of the params frame: decoders must fail these
	// with typed errors, never a panic or a large allocation.
	frame := bytes.Clone(seeds["params"])
	seeds["truncated"] = frame[:len(frame)-2]

	bad := bytes.Clone(frame)
	copy(bad[:4], "NOPE")
	seeds["badmagic"] = bad

	future := bytes.Clone(frame)
	binary.LittleEndian.PutUint16(future[4:6], cluster.WireVersion+1)
	seeds["badversion"] = future

	huge := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(huge[8:12], 1<<30) // lying length prefix
	seeds["hugelen"] = huge

	// A well-framed key set whose polys outgrow its params: keys
	// generated for a 5-prime chain under a 3-prime params header. The
	// decoder must reject the shapes instead of indexing past the chain.
	deep := params
	deep.Levels = 5
	deepBackend, err := hebgv.New(hebgv.Config{Params: deep, RotationSteps: []int{3}, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	defer deepBackend.Close()
	var db bytes.Buffer
	must(cluster.EncodeKeyMaterial(&db, deepBackend.PublicMaterial()))
	seeds["keylevels"] = withKeyParams(db.Bytes(), params)

	// A version-1 params frame: the byte that now holds K held the
	// digit width (45) then; decoders must refuse the old version.
	v1 := bytes.Clone(frame)
	binary.LittleEndian.PutUint16(v1[4:6], 1)
	seeds["v1params"] = v1

	garbled := bytes.Clone(seeds["ciphertexts"])
	for i := 12; i < len(garbled); i += 97 {
		garbled[i] ^= 0x5a
	}
	seeds["garbled"] = garbled

	for name, data := range seeds {
		path := filepath.Join(dir, name)
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(data))
	}
}

// withKeyParams re-frames a key-material frame under other params,
// keeping its key polys.
func withKeyParams(frame []byte, p bgv.Params) []byte {
	zr, err := gzip.NewReader(bytes.NewReader(frame[12:]))
	if err != nil {
		log.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		log.Fatal(err)
	}
	var pb bytes.Buffer
	must(cluster.EncodeParams(&pb, p))
	copy(raw, pb.Bytes()[12:]) // the params payload is the key payload's fixed-width prefix
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	_, err = zw.Write(raw)
	must(err)
	must(zw.Close())
	out := bytes.Clone(frame[:12])
	binary.LittleEndian.PutUint32(out[8:12], uint32(zbuf.Len()))
	return append(out, zbuf.Bytes()...)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
