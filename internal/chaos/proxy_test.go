package chaos

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c) //nolint:errcheck // test echo
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestProxyCleanForward: with zero faults the proxy is a transparent
// byte pipe.
func TestProxyCleanForward(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	msg := []byte("through the chaos proxy, unharmed")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // test deadline
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	accepted, resets := p.accepted.Load(), p.resets.Load()
	if accepted != 1 || resets != 0 {
		t.Fatalf("accepted=%d resets=%d, want 1/0", accepted, resets)
	}
}

// TestProxyResetInjection: with ResetProb=1 every chunk dies with a
// reset — the client observes a closed connection, never its echo.
func TestProxyResetInjection(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), Faults{Seed: 7, ResetProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("doomed"))                          //nolint:errcheck // the write may outrun the reset
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // test deadline
	if _, err := c.Read(make([]byte, 8)); err == nil {
		t.Fatal("read succeeded through a ResetProb=1 proxy")
	}
	if p.resets.Load() == 0 {
		t.Fatal("no reset recorded")
	}
}

// TestProxyCutAndHeal: SetCut(true) kills established connections and
// resets new ones; SetCut(false) restores clean forwarding on the same
// address — the kill/restart primitive the chaos wall scripts.
func TestProxyCutAndHeal(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // test deadline
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}

	p.SetCut(true)
	// The established connection dies...
	c.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // test deadline
	if _, err := c.Read(buf); err == nil {
		t.Fatal("established connection survived the cut")
	}
	// ...and new connections are reset before any byte flows.
	dead, err := net.Dial("tcp", p.Addr())
	if err == nil {
		dead.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // test deadline
		if _, err := dead.Read(buf); err == nil {
			t.Fatal("connection through a cut proxy answered")
		}
		dead.Close()
	}

	p.SetCut(false)
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	c2.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // test deadline
	if _, err := io.ReadFull(c2, buf); err != nil {
		t.Fatalf("healed proxy did not forward: %v", err)
	}
	if string(buf) != "ok" {
		t.Fatalf("healed echo %q", buf)
	}
	if p.refused.Load() == 0 {
		t.Fatal("no refused connection recorded during the cut")
	}
}

// TestProxyBlackhole: a blackholed connection accepts writes and never
// answers — the client's own deadline is its only way out.
func TestProxyBlackhole(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String(), Faults{Seed: 3, BlackholeProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("anyone home?")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(150 * time.Millisecond)) //nolint:errcheck // test deadline
	if _, err := c.Read(make([]byte, 8)); err == nil {
		t.Fatal("blackholed connection answered")
	}
	blackholes := p.blackholes.Load()
	if blackholes != 1 {
		t.Fatalf("blackholes=%d, want 1", blackholes)
	}
}

// TestProxyDeterministicFaultSchedule: the same seed and connection
// order replays the same fault decisions (here: which of 20 sequential
// connections get blackholed).
func TestProxyDeterministicFaultSchedule(t *testing.T) {
	run := func() []bool {
		ln := echoServer(t)
		p, err := NewProxy(ln.Addr().String(), Faults{Seed: 42, BlackholeProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		outcomes := make([]bool, 20)
		for i := range outcomes {
			c, err := net.Dial("tcp", p.Addr())
			if err != nil {
				t.Fatal(err)
			}
			c.Write([]byte("ping"))                                   //nolint:errcheck // best effort
			c.SetReadDeadline(time.Now().Add(300 * time.Millisecond)) //nolint:errcheck // test deadline
			_, rerr := io.ReadFull(c, make([]byte, 4))
			outcomes[i] = rerr == nil // true = echoed, false = blackholed
			c.Close()
		}
		return outcomes
	}
	a, b := run(), run()
	echoed := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("connection %d: run A echoed=%v, run B echoed=%v — fault schedule not deterministic", i, a[i], b[i])
		}
		if a[i] {
			echoed++
		}
	}
	if echoed == 0 || echoed == len(a) {
		t.Fatalf("degenerate schedule: %d/%d echoed (want a mix at p=0.5)", echoed, len(a))
	}
}
