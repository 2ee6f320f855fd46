package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"copse/internal/bgv"
	"copse/internal/core"
	"copse/internal/he/hebgv"
	"copse/internal/model"
)

// -update regenerates the golden wire files from the current encoder.
var update = flag.Bool("update", false, "rewrite golden wire-format files")

// tinyParams is a deliberately minimal parameter set (N=16) so the
// committed golden key material stays a few kilobytes.
func tinyParams() bgv.Params {
	return bgv.Params{LogN: 4, T: 65537, PrimeBits: 40, Levels: 3, SpecialPrimes: 3}
}

// tinyBackend builds a deterministic backend on the tiny parameters.
func tinyBackend(t *testing.T) *hebgv.Backend {
	t.Helper()
	b, err := hebgv.New(hebgv.Config{
		Params:             tinyParams(),
		RotationSteps:      []int{3, -2},
		RotationStepLevels: map[int]int{3: 1},
		Seed:               42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

// checkGolden compares got against the committed golden file (or
// rewrites it under -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (regenerate with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding differs from golden file (%d vs %d bytes); if the format change is intentional, bump WireVersion and regenerate with -update", name, len(got), len(want))
	}
}

// TestWireGoldenParams pins the parameter frame format.
func TestWireGoldenParams(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeParams(&buf, tinyParams()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "params.wire", buf.Bytes())

	got, err := DecodeParams(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != tinyParams() {
		t.Errorf("params round trip: got %+v, want %+v", got, tinyParams())
	}

	// Golden decode: the committed bytes must still decode and
	// re-encode byte-identically.
	golden, err := os.ReadFile(goldenPath("params.wire"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeParams(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("decoding golden params: %v", err)
	}
	var re bytes.Buffer
	if err := EncodeParams(&re, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), golden) {
		t.Error("golden params do not re-encode byte-identically")
	}
}

// TestWireGoldenKeyMaterial pins the key-material frame format and the
// full round trip: decoded material must carry identical polynomials
// and correctly rebuilt Shoup tables.
func TestWireGoldenKeyMaterial(t *testing.T) {
	b := tinyBackend(t)
	defer b.Close()
	mat := b.Material()

	var buf bytes.Buffer
	if err := EncodeKeyMaterial(&buf, mat); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "keys.wire", buf.Bytes())

	got, err := DecodeKeyMaterial(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Params != mat.Params {
		t.Errorf("params: got %+v, want %+v", got.Params, mat.Params)
	}
	if !reflect.DeepEqual(got.Public, mat.Public) {
		t.Error("public key lost in round trip")
	}
	if !reflect.DeepEqual(got.Secret, mat.Secret) {
		t.Error("secret key lost in round trip")
	}
	if got.Keys == nil || got.Keys.Relin == nil {
		t.Fatal("relin key lost in round trip")
	}
	if !reflect.DeepEqual(got.Keys.Relin.B, mat.Keys.Relin.B) || !reflect.DeepEqual(got.Keys.Relin.A, mat.Keys.Relin.A) {
		t.Error("relin key polys lost in round trip")
	}
	// Shoup companions are rebuilt, not shipped — they must still match.
	if !reflect.DeepEqual(got.Keys.Relin.BS, mat.Keys.Relin.BS) || !reflect.DeepEqual(got.Keys.Relin.AS, mat.Keys.Relin.AS) {
		t.Error("rebuilt Shoup tables differ from originals")
	}
	if len(got.Keys.Galois) != len(mat.Keys.Galois) {
		t.Fatalf("Galois key count %d, want %d", len(got.Keys.Galois), len(mat.Keys.Galois))
	}
	for elt, k := range mat.Keys.Galois {
		gk, ok := got.Keys.Galois[elt]
		if !ok {
			t.Errorf("Galois elt %d lost", elt)
			continue
		}
		if !reflect.DeepEqual(gk.B, k.B) || !reflect.DeepEqual(gk.BS, k.BS) {
			t.Errorf("Galois key %d differs after round trip", elt)
		}
	}

	// Public scope: no secret key on the wire, decode still works, and
	// the fingerprint matches the full material's.
	var pub bytes.Buffer
	if err := EncodeKeyMaterial(&pub, b.PublicMaterial()); err != nil {
		t.Fatal(err)
	}
	gotPub, err := DecodeKeyMaterial(bytes.NewReader(pub.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gotPub.Secret != nil {
		t.Error("public material leaked a secret key")
	}
	fpFull, err := KeyFingerprint(mat)
	if err != nil {
		t.Fatal(err)
	}
	fpPub, err := KeyFingerprint(gotPub)
	if err != nil {
		t.Fatal(err)
	}
	if fpFull != fpPub || len(fpFull) != 64 {
		t.Errorf("fingerprint mismatch: full %s, public %s", fpFull, fpPub)
	}

	// The decoded material must be usable: encrypt with a from-material
	// backend, decrypt with the original.
	fromMat, err := hebgv.NewFromMaterial(hebgv.Config{Seed: 7}, got)
	if err != nil {
		t.Fatal(err)
	}
	defer fromMat.Close()
	vals := []uint64{1, 2, 3, 4, 5, 6, 7, 0}
	ct, err := fromMat.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fromMat.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if dec[i] != v {
			t.Fatalf("from-material decrypt slot %d = %d, want %d", i, dec[i], v)
		}
	}
}

// TestWireGoldenCiphertexts pins the ciphertext-batch frame format and
// cross-backend transport.
func TestWireGoldenCiphertexts(t *testing.T) {
	b := tinyBackend(t)
	defer b.Close()
	vals := []uint64{5, 0, 1, 3, 2, 7, 6, 4}
	ct, err := b.Encrypt(vals)
	if err != nil {
		t.Fatal(err)
	}
	raw, depth, err := b.ExportCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCiphertexts(&buf, []WireCiphertext{{Ct: raw, Depth: depth}}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cts.wire", buf.Bytes())

	got, err := DecodeCiphertexts(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Depth != depth {
		t.Fatalf("decoded %d cts (depth %d), want 1 (depth %d)", len(got), got[0].Depth, depth)
	}
	// Transport into a second backend built from the same wire
	// material: the ciphertext must decrypt there.
	var keyBuf bytes.Buffer
	if err := EncodeKeyMaterial(&keyBuf, b.Material()); err != nil {
		t.Fatal(err)
	}
	mat, err := DecodeKeyMaterial(bytes.NewReader(keyBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	other, err := hebgv.NewFromMaterial(hebgv.Config{}, mat)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	dec, err := other.Decrypt(other.ImportCiphertext(got[0].Ct, got[0].Depth))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if dec[i] != v {
			t.Fatalf("transported ciphertext slot %d = %d, want %d", i, dec[i], v)
		}
	}
}

// TestWireGoldenMeta pins the Meta frame (gob payload) round trip.
func TestWireGoldenMeta(t *testing.T) {
	c, err := core.Compile(model.Figure1(), core.Options{Slots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeMeta(&buf, &c.Meta); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "meta.wire", buf.Bytes())

	got, err := DecodeMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &c.Meta) {
		t.Errorf("meta round trip:\n got %+v\nwant %+v", got, &c.Meta)
	}
	if got.LevelPlan == nil {
		t.Error("level plan lost on the wire")
	}
}

// TestWireVersionError pins the typed future-version error: a frame
// stamped with a newer wire version must fail with *WireVersionError on
// every decoder, not decode into garbage.
func TestWireVersionError(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeParams(&buf, tinyParams()); err != nil {
		t.Fatal(err)
	}
	future := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint16(future[4:6], WireVersion+1)

	decoders := map[string]func([]byte) error{
		"params": func(b []byte) error { _, err := DecodeParams(bytes.NewReader(b)); return err },
		"keys":   func(b []byte) error { _, err := DecodeKeyMaterial(bytes.NewReader(b)); return err },
		"cts":    func(b []byte) error { _, err := DecodeCiphertexts(bytes.NewReader(b)); return err },
		"meta":   func(b []byte) error { _, err := DecodeMeta(bytes.NewReader(b)); return err },
	}
	for name, dec := range decoders {
		err := dec(future)
		var ve *WireVersionError
		if !errors.As(err, &ve) {
			t.Errorf("%s: future version error = %v, want *WireVersionError", name, err)
			continue
		}
		if ve.Got != WireVersion+1 || ve.Supported != WireVersion {
			t.Errorf("%s: version error %+v", name, ve)
		}
	}
}

// TestWireV1KeyFramesRejected: version 2 changed the params payload
// (the byte that held the base-2^w digit width now holds K) and the
// switching-key layout, so a version-1 params or key-material frame must
// fail with *WireVersionError rather than be misread; ciphertext frames
// did not change and still decode.
func TestWireV1KeyFramesRejected(t *testing.T) {
	b := tinyBackend(t)
	defer b.Close()
	var pb, kb, cb bytes.Buffer
	if err := EncodeParams(&pb, tinyParams()); err != nil {
		t.Fatal(err)
	}
	if err := EncodeKeyMaterial(&kb, b.PublicMaterial()); err != nil {
		t.Fatal(err)
	}
	ct, err := b.Encrypt([]uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	raw, depth, err := b.ExportCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodeCiphertexts(&cb, []WireCiphertext{{Ct: raw, Depth: depth}}); err != nil {
		t.Fatal(err)
	}
	v1 := func(frame []byte) []byte {
		old := bytes.Clone(frame)
		binary.LittleEndian.PutUint16(old[4:6], 1)
		return old
	}
	for name, err := range map[string]error{
		"params": func() error { _, err := DecodeParams(bytes.NewReader(v1(pb.Bytes()))); return err }(),
		"keys":   func() error { _, err := DecodeKeyMaterial(bytes.NewReader(v1(kb.Bytes()))); return err }(),
	} {
		var ve *WireVersionError
		if !errors.As(err, &ve) || ve.Got != 1 || ve.Min != 2 {
			t.Errorf("%s: v1 frame error = %v, want *WireVersionError{Got: 1, Min: 2}", name, err)
		}
	}
	if _, err := DecodeCiphertexts(bytes.NewReader(v1(cb.Bytes()))); err != nil {
		t.Errorf("v1 ciphertext frame rejected: %v", err)
	}
}

// rewriteKeyParams re-frames a key-material frame with its params
// swapped for p, leaving every key poly as it was.
func rewriteKeyParams(t *testing.T, frame []byte, p bgv.Params) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(frame[12:]))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var pb bytes.Buffer
	putParams(&pb, p)
	copy(raw, pb.Bytes()) // fixed-width params prefix
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(raw)
	zw.Close()
	var out bytes.Buffer
	if err := writeFrame(&out, KindKeyMaterial, zbuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestWireKeyShapeMismatch: a well-framed key set whose polys do not
// fit its params — more limbs than the chain, fewer, or another ring
// degree — must fail with an error, never index past the chain.
func TestWireKeyShapeMismatch(t *testing.T) {
	deep := tinyParams()
	deep.Levels = 5
	b, err := hebgv.New(hebgv.Config{Params: deep, RotationSteps: []int{3}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var kb bytes.Buffer
	if err := EncodeKeyMaterial(&kb, b.Material()); err != nil {
		t.Fatal(err)
	}
	shallow := tinyParams() // Levels 3 carrying Levels 5 keys
	wide := deep
	wide.LogN = 5 // right levels, wrong ring degree
	fewerK := deep
	fewerK.SpecialPrimes = 2 // switching keys one P limb too long
	for name, p := range map[string]bgv.Params{"shallow": shallow, "wide": wide, "fewerK": fewerK} {
		frame := rewriteKeyParams(t, kb.Bytes(), p)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: decoder panicked: %v", name, r)
				}
			}()
			if _, err := DecodeKeyMaterial(bytes.NewReader(frame)); err == nil {
				t.Errorf("%s: mismatched key shapes accepted", name)
			}
		}()
	}
	// The unmodified frame still decodes.
	if _, err := DecodeKeyMaterial(bytes.NewReader(rewriteKeyParams(t, kb.Bytes(), deep))); err != nil {
		t.Fatalf("re-framed original keys rejected: %v", err)
	}
}

// TestWireFrameErrors pins the non-version failure modes: bad magic,
// wrong kind, truncation, and trailing garbage.
func TestWireFrameErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeParams(&buf, tinyParams()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	bad := bytes.Clone(frame)
	copy(bad[:4], "NOPE")
	if _, err := DecodeParams(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodeCiphertexts(bytes.NewReader(frame)); err == nil {
		t.Error("params frame accepted as ciphertexts")
	}
	if _, err := DecodeParams(bytes.NewReader(frame[:len(frame)-2])); err == nil {
		t.Error("truncated frame accepted")
	}
	long := bytes.Clone(frame)
	binary.LittleEndian.PutUint32(long[8:12], uint32(len(frame))) // claims more payload than present
	if _, err := DecodeParams(bytes.NewReader(long)); err == nil {
		t.Error("overlong length prefix accepted")
	}
}

// TestWireSizeLimits pins the typed size and truncation errors, the
// configurable frame budget, and the decompressed-size bound on key
// material.
func TestWireSizeLimits(t *testing.T) {
	defer SetMaxFrameBytes(0)
	var buf bytes.Buffer
	if err := EncodeParams(&buf, tinyParams()); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()

	// Declared payload over the configured limit fails typed, before
	// any allocation proportional to the claim.
	SetMaxFrameBytes(8)
	var fse *FrameSizeError
	if _, err := DecodeParams(bytes.NewReader(frame)); !errors.As(err, &fse) {
		t.Errorf("over-limit frame error = %v, want *FrameSizeError", err)
	} else if fse.Limit != 8 {
		t.Errorf("FrameSizeError limit = %d, want 8", fse.Limit)
	}
	SetMaxFrameBytes(0)
	if MaxFrameBytes() != DefaultMaxFrameBytes {
		t.Errorf("SetMaxFrameBytes(0) left limit %d, want default %d", MaxFrameBytes(), DefaultMaxFrameBytes)
	}

	// A stream shorter than its header's promise fails typed too.
	var tfe *TruncatedFrameError
	if _, err := DecodeParams(bytes.NewReader(frame[:len(frame)-2])); !errors.As(err, &tfe) {
		t.Errorf("truncated stream error = %v, want *TruncatedFrameError", err)
	} else if tfe.Got >= tfe.Want {
		t.Errorf("TruncatedFrameError got %d >= want %d", tfe.Got, tfe.Want)
	}

	// An implausible level count fails at the wire layer, before the
	// decoder pays prime generation proportional to the lie.
	deep := tinyParams()
	deep.Levels = maxWireLevels + 1
	var db bytes.Buffer
	if err := EncodeParams(&db, deep); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeParams(bytes.NewReader(db.Bytes())); err == nil {
		t.Error("implausible level count accepted")
	}

	// Decompression bomb: a small gzipped key-material frame expanding
	// past the budget must fail with *FrameSizeError, not balloon.
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	var bomb bytes.Buffer
	if err := writeFrame(&bomb, KindKeyMaterial, zbuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	SetMaxFrameBytes(1 << 12)
	if _, err := DecodeKeyMaterial(bytes.NewReader(bomb.Bytes())); !errors.As(err, &fse) {
		t.Errorf("decompression bomb error = %v, want *FrameSizeError", err)
	}
}
