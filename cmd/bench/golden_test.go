package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The quick strategy-matrix record stream, pinned byte for byte: every
// column of the standard matrix over every family's quick instances,
// untimed and without a per-run timeout, so the stream is a pure
// function of the corpus and the solvers.
const matrixGolden = "testdata/matrix.golden.jsonl"

func TestMatrixRecordsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick matrix")
	}
	var out, errb bytes.Buffer
	err := run([]string{"-families", "all", "-quick", "-parallel", "1", "-timeout", "0",
		"-timing=false", "-out", "json"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.FromSlash(matrixGolden))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(out.String(), "\n")
	want := strings.Split(string(data), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("record line %d differs from %s:\ngot  %s\nwant %s", i+1, matrixGolden, g, w)
		}
	}
}
