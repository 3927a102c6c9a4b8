//go:build !unix || aix

package dataplane

// alive reports every idle connection dead. Without a non-blocking peek
// (AIX's syscall package has no MSG_DONTWAIT) a connection the server
// has closed cannot be told from an open one, so the pool dials per
// call.
func (c *upConn) alive() bool { return false }

// peekFD is never run without the probe.
func (c *upConn) peekFD(uintptr) bool { return true }
