//go:build unix

package dist

import (
	"os"
	"syscall"
)

// socketpair returns both ends of a connected Unix stream pair, close-on-exec
// (the launcher hands descriptors to workers explicitly via ExtraFiles).
func socketpair() (*os.File, *os.File, error) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, nil, err
	}
	syscall.CloseOnExec(fds[0])
	syscall.CloseOnExec(fds[1])
	return os.NewFile(uintptr(fds[0]), "dist-sock"), os.NewFile(uintptr(fds[1]), "dist-sock"), nil
}
