package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the trace reader: it must never
// panic, and must terminate with a clean EOF or an error.
func FuzzReader(f *testing.F) {
	// Seed with a valid small trace and some mutations.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Malloc(0x10000, 4096)
	w.Prefault(0x10000)
	w.emit(KSteady)
	w.Load(0x10008)
	w.Store(0x10010)
	w.Ops(3)
	w.Branch(0x400, true)
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("att1"))
	f.Add([]byte("att1\xff\xff\xff"))
	f.Add([]byte{'a', 't', 't', '1', byte(KSteady), byte(KSteady), byte(KLoad)})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			_, err := r.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return
			}
		}
	})
}
