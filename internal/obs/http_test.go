package obs

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// TestPartialHeaderIsCut sends a request whose headers never finish and
// expects the server to close the connection once the header timeout
// passes, instead of holding the connection and its goroutine forever.
func TestPartialHeaderIsCut(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	srv, addr, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.IdleTimeout <= 0 {
		t.Fatal("no idle timeout: keep-alive connections are held forever")
	}

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\nX-Slow: "); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.ReadAll(conn) // returns once the server closes its side
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server still holds a connection whose headers never finished")
	}
}
