package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workload"
)

// writeChampsim materialises n instructions of a workload as a ChampSim
// trace at path, gzipped when the name ends in .gz, and returns the raw
// (uncompressed) bytes.
func writeChampsim(t *testing.T, path, wl string, n int) []byte {
	t.Helper()
	var raw bytes.Buffer
	tw := tracefile.NewWriter(&raw)
	rd := workload.MustByName(wl).NewReader(1)
	for i := 0; i < n; i++ {
		in, ok := rd.Next()
		if !ok {
			break
		}
		if err := tw.WriteInst(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := raw.Bytes()
	if strings.HasSuffix(path, ".gz") {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return data
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// runPpfsim invokes the command entry point and captures its streams.
func runPpfsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestTraceEndToEnd: a gzipped ChampSim trace runs through the full
// simulator and reports statistics — the external-ingestion acceptance
// path.
func TestTraceEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.champsim.gz")
	writeChampsim(t, path, "605.mcf_s", 80_000)
	code, stdout, stderr := runPpfsim(t,
		"-trace", path, "-scheme", "ppf", "-warmup", "10000", "-detail", "50000")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"core 0: IPC", "PPF:", "DRAM:"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("output missing %q:\n%s", want, stdout)
		}
	}
}

// TestTraceSchemesAgreeWithDirectStream: simulating a round-tripped
// ChampSim trace must match simulating the generator directly (ppfsim
// -workload) — same scheme, same budget, same printed statistics.
func TestTraceSchemesAgreeWithDirectStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bwaves.champsim")
	writeChampsim(t, path, "603.bwaves_s", 70_000)
	codeT, outT, errT := runPpfsim(t,
		"-trace", path, "-scheme", "spp", "-warmup", "5000", "-detail", "40000")
	if codeT != 0 {
		t.Fatalf("trace run: exit %d, stderr: %s", codeT, errT)
	}
	codeW, outW, errW := runPpfsim(t,
		"-workload", "603.bwaves_s", "-scheme", "spp", "-seed", "1", "-warmup", "5000", "-detail", "40000")
	if codeW != 0 {
		t.Fatalf("workload run: exit %d, stderr: %s", codeW, errW)
	}
	if outT != outW {
		t.Fatalf("trace-file run diverged from direct generator run:\n--- trace\n%s\n--- workload\n%s", outT, outW)
	}
}

// TestTruncatedTraceExitsNonzero: a trace cut mid-record must exit
// nonzero with a one-line file:offset diagnostic, not quietly simulate
// a shorter run. This is the regression test for the reader-errors-as-
// diagnostics fix.
func TestTruncatedTraceExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.champsim")
	data := writeChampsim(t, path, "605.mcf_s", 30_000)
	cut := data[:len(data)-17]
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runPpfsim(t,
		"-trace", path, "-scheme", "none", "-warmup", "1000", "-detail", "100000")
	if code == 0 {
		t.Fatalf("truncated trace exited 0; stderr: %s", stderr)
	}
	for _, want := range []string{path, "offset", "truncated record"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("diagnostic missing %q: %s", want, stderr)
		}
	}
}

// TestGarbageTraceExitsNonzero: impossible flag bytes mid-stream are a
// diagnostic too.
func TestGarbageTraceExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.champsim")
	data := writeChampsim(t, path, "605.mcf_s", 30_000)
	data[100*tracefile.RecordSize+8] = 0xEE // record 100: garbage is_branch
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runPpfsim(t,
		"-trace", path, "-scheme", "none", "-warmup", "1000", "-detail", "100000")
	if code == 0 {
		t.Fatalf("garbage trace exited 0; stderr: %s", stderr)
	}
	for _, want := range []string{path, "offset", "is_branch"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("diagnostic missing %q: %s", want, stderr)
		}
	}
}

// TestTruncatedNativeTraceExitsNonzero: the native .ppft format gets
// the same treatment.
func TestTruncatedNativeTraceExitsNonzero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trunc.ppft")
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rd := workload.MustByName("603.bwaves_s").NewReader(1)
	for i := 0; i < 20_000; i++ {
		in, _ := rd.Next()
		if err := tw.Write(in); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runPpfsim(t,
		"-trace", path, "-scheme", "none", "-warmup", "1000", "-detail", "100000")
	if code == 0 {
		t.Fatalf("truncated .ppft exited 0; stderr: %s", stderr)
	}
	for _, want := range []string{path, "offset", "truncated record"} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("diagnostic missing %q: %s", want, stderr)
		}
	}
}

// TestUnknownWorkloadExitsNonzero pins the plain CLI error paths.
func TestUnknownWorkloadExitsNonzero(t *testing.T) {
	code, _, stderr := runPpfsim(t, "-workload", "no-such-workload")
	if code == 0 || !strings.Contains(stderr, "unknown workload") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	code, _, _ = runPpfsim(t)
	if code == 0 {
		t.Fatal("no -workload/-trace should exit nonzero")
	}
}

// TestUnknownSchemeExitsUsage: a mistyped -scheme is a usage error that
// names the known schemes, not a panic from the setup builder.
func TestUnknownSchemeExitsUsage(t *testing.T) {
	code, _, stderr := runPpfsim(t, "-workload", "603.bwaves_s", "-scheme", "bogus")
	if code != 2 || !strings.Contains(stderr, `unknown scheme "bogus"`) {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, s := range experiment.NamedSchemes() {
		if !strings.Contains(stderr, string(s)) {
			t.Errorf("stderr %q does not name scheme %s", stderr, s)
		}
	}
}
