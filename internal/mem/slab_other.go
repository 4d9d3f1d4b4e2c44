//go:build !linux

package mem

import "errors"

// platformMapSlab always fails here, so every slab comes from make.
func platformMapSlab(int) ([]byte, func(), error) {
	return nil, nil, errors.New("mem: no huge-page slab mapping on this platform")
}
