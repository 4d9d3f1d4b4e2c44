package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"
)

// inputDigests pins the graph inputs the benchmark and the medium
// campaign build, above the scales TestGeneratorsMatchReference reaches:
// a SHA-256 of off (little-endian uint64s) and one of nbr (little-endian
// uint32s) per input. They were recorded from the one-goroutine build,
// so any change to the generators, the CSR build or the relabel must
// leave them as they are.
var inputDigests = []struct {
	gen     string
	scale   uint64
	relabel bool
	long    bool // skipped under -short
	off     string
	nbr     string
}{
	{"kron", 18, false, false,
		"c7e046c568fd55e1f2bc7472a4b312e38e0349e3872c2e6647c5ecadcafa854b",
		"d3bfe1277b9abca5a6eb66eb881d8947eee4a0bae03db96cdd34ffc9e9b8a0ac"},
	{"urand", 17, false, false,
		"121c16bef8a863c8ee8445bb877de7b80d50e1841c5ff310a826d6dfe476976e",
		"13f6bcdf5020f434cf058438490f98283f5539510598bc2dd2bc2050e2a1a493"},
	{"urand", 17, true, false,
		"6a2b46999b38d3fccdfe6e146eb8090508a009ad833e4010fce4926e0b2eed4f",
		"44367b936a8253ae2ef9857e23fb7dee14aa043006b2b59bf5bc76b3d86d0e68"},
	{"kron", 20, false, true,
		"c858c5e10e68fdd1c5f821029e4381bbed0865abfbcb77c02c867bd59c35ea77",
		"d53e4084592f982d0c5137084a0656ba5b2784a5c061a401688ec00b4e6d8da8"},
	{"urand", 20, false, true,
		"51d1230c8390b2bf4c3893f3ea76de46c4cd7909acb2c59c1eeefcc0e101b886",
		"1bf89d04434745d32f67ba4db8ce0c26143105774218d7aaf0808087460fc514"},
}

// csrDigests returns the hex SHA-256 digests of h.off and h.nbr.
func csrDigests(h hostCSR) (off, nbr string) {
	b := make([]byte, 0, 8*len(h.off))
	for _, o := range h.off {
		b = binary.LittleEndian.AppendUint64(b, o)
	}
	off = fmt.Sprintf("%x", sha256.Sum256(b))
	b = b[:0]
	for _, v := range h.nbr {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return off, fmt.Sprintf("%x", sha256.Sum256(b))
}

func TestGraphInputDigests(t *testing.T) {
	for _, d := range inputDigests {
		name := fmt.Sprintf("%s-%d", d.gen, d.scale)
		if d.relabel {
			name += "-relabel"
		}
		t.Run(name, func(t *testing.T) {
			if d.long && testing.Short() {
				t.Skip("medium-campaign rung; skipped under -short")
			}
			h := generateUncached(d.gen, d.scale)
			if d.relabel {
				h = h.relabelByDegree()
			}
			off, nbr := csrDigests(h)
			if off != d.off {
				t.Errorf("off digest %s, want %s", off, d.off)
			}
			if nbr != d.nbr {
				t.Errorf("nbr digest %s, want %s", nbr, d.nbr)
			}
		})
	}
}
