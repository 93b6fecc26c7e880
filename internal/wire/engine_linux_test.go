package wire

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// Every engine socket asks for socketBuffer bytes of receive queue, so a
// blast window fits where the kernel default would overflow. Linux
// doubles the request for its bookkeeping after capping it at
// net.core.rmem_max, so each socket must report at least that much.
func TestEngineSocketReceiveBuffer(t *testing.T) {
	raw, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		t.Skipf("cannot read rmem_max: %v", err)
	}
	rmemMax, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("rmem_max: %v", err)
	}
	want := 2 * min(socketBuffer, rmemMax)
	eng, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, c := range eng.conns {
		rc, err := c.SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		var got int
		var gerr error
		if err := rc.Control(func(fd uintptr) {
			got, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		}); err != nil {
			t.Fatal(err)
		}
		if gerr != nil {
			t.Fatalf("socket %d: SO_RCVBUF: %v", i, gerr)
		}
		if got < want {
			t.Fatalf("socket %d: SO_RCVBUF = %d, want at least %d (the %d-byte request, capped at rmem_max %d, doubled)",
				i, got, want, socketBuffer, rmemMax)
		}
	}
}
