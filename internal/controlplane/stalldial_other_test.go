//go:build !linux

package controlplane

import "testing"

// stalledDial returns "": only Linux is known to drop a SYN to a full
// accept queue rather than refuse it.
func stalledDial(*testing.T) string { return "" }
