package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestQuickGolden runs the built binary over every experiment at quick
// scale and requires its csv stdout to match testdata/quick.csv byte for
// byte. csv stdout carries no timings, so any difference is a changed
// number. Regenerate the golden only when a change is meant to alter the
// paper's numbers:
//
//	go run ./cmd/repro -scale quick -format csv all > cmd/repro/testdata/quick.csv
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.csv"))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "repro")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-scale", "quick", "-format", "csv", "all")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("repro: %v\n%s", err, stderr.Bytes())
	}
	got := stdout.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("output differs from testdata/quick.csv at line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
