//go:build unix && !aix

package dataplane

import "syscall"

// alive reports whether an idle connection can carry another request.
// Nothing reads an idle connection, so nothing has seen a server close
// it; one non-blocking MSG_PEEK recv asks the socket instead. EAGAIN
// means open and quiet. EOF, an error, or data nobody asked for (a
// stray answer, or bytes left in br) each mean the connection is done.
//
//slate:hot
func (c *upConn) alive() bool {
	if c.raw == nil || c.br.Buffered() > 0 {
		return false
	}
	if err := c.raw.Read(c.peek); err != nil {
		return false
	}
	return c.peekErr == syscall.EAGAIN
}

// peekFD is the probe RawConn.Read runs on the descriptor. It returns
// true at once, so Read never waits for the socket to become readable.
//
//slate:hot
func (c *upConn) peekFD(fd uintptr) bool {
	_, _, c.peekErr = syscall.Recvfrom(int(fd), c.peekBuf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return true
}
