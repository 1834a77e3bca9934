//go:build !unix

package colfmt

import "errors"

// mapFile is unavailable off unix; openRank falls back to reading the file.
func mapFile(path string) ([]byte, func() error, error) {
	return nil, nil, errors.New("colfmt: mmap unsupported on this platform")
}
