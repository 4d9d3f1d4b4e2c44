package all

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"atscale/internal/arch"
	"atscale/internal/machine"
	"atscale/internal/workloads"
)

// The set-up golden locks, for every registered workload at its smallest
// rung, the order in which set-up and the measured region's untimed
// resets first touch pages. Frames and page-table pages are
// bump-allocated in fault order, so any change to that order moves
// physical addresses and every counter. It was recorded with set-up
// written one word at a time; batched set-up must leave it unchanged.
//
// Regenerate (only when a workload's set-up deliberately changes) with:
//
//	UPDATE_SETUPGOLD=1 go test ./internal/workloads/all -run TestSetupGolden
const setupGolden = "testdata/setup.golden"

// prefaultHash is a machine.Tracer that hashes the quiet prefaults in
// order and counts them.
type prefaultHash struct {
	h hash.Hash
	n int
}

func (p *prefaultHash) Load(arch.VAddr)           {}
func (p *prefaultHash) Store(arch.VAddr)          {}
func (p *prefaultHash) Ops(uint64)                {}
func (p *prefaultHash) Branch(uint64, bool)       {}
func (p *prefaultHash) Malloc(arch.VAddr, uint64) {}
func (p *prefaultHash) Prefault(page arch.VAddr) {
	p.n++
	p.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(page)))
}

// setupDigest builds spec at its smallest rung, runs a short measured
// region, and renders one golden line: the prefault count, the page-table
// size, and a SHA-256 over the prefault sequence and every counter.
func setupDigest(t *testing.T, spec *workloads.Spec) string {
	t.Helper()
	m, err := machine.New(arch.DefaultSystem(), arch.Page4K, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &prefaultHash{h: sha256.New()}
	m.SetTracer(tr)
	param := spec.Ladder[0]
	inst, err := spec.Instantiate(m, param)
	if err != nil {
		t.Fatalf("%s %d: %v", spec.Name(), param, err)
	}
	workloads.RunPhased(context.Background(), m, inst, 50_000)
	tr.h.Write([]byte(m.Counters().Format()))
	return fmt.Sprintf("%s %d prefaults=%d pt_bytes=%d sha256=%x\n",
		spec.Name(), param, tr.n, m.PageTableBytes(), tr.h.Sum(nil))
}

func TestSetupGolden(t *testing.T) {
	var got bytes.Buffer
	for _, spec := range workloads.All() {
		got.WriteString(setupDigest(t, spec))
	}
	if os.Getenv("UPDATE_SETUPGOLD") != "" {
		if err := os.MkdirAll(filepath.Dir(setupGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(setupGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(setupGolden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_SETUPGOLD=1 to create): %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, got %d:\n%s", len(wl), len(gl), got.Bytes())
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("set-up drifted:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
