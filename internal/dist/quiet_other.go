//go:build !unix

package dist

import "net"

// quiet cannot peek at a socket here, so Run keeps no link.
func quiet(net.Conn) bool { return false }
