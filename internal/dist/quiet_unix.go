//go:build unix

package dist

import (
	"net"
	"syscall"
)

var peekErr error // guarded by keptLinks' lock, under which quiet runs

// quiet reports whether nothing, not even the peer's close, waits to be read
// on conn: one non-blocking peek.
func quiet(conn net.Conn) bool {
	rc, err := conn.(*net.TCPConn).SyscallConn()
	return err == nil && rc.Read(peek) == nil && peekErr == syscall.EAGAIN
}

func peek(fd uintptr) bool {
	var b [1]byte
	_, _, peekErr = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return true
}
