//go:build !unix

package dist

import (
	"errors"
	"os"
)

func socketpair() (*os.File, *os.File, error) {
	return nil, nil, errors.New("dist: multi-process launch requires a unix platform")
}
