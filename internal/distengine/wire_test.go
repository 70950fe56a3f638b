package distengine

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"net"
	"sync"
	"testing"
	"time"

	"regiongrow/internal/core"
	"regiongrow/internal/pixmap"
	"regiongrow/internal/rag"
	"regiongrow/internal/transport"
)

// tapConn wraps a worker-side accepted connection and records both byte
// streams: what the coordinator sent (observed as the worker reads) and
// what the worker wrote back.
type tapConn struct {
	net.Conn
	mu  *sync.Mutex
	in  *bytes.Buffer // coordinator → worker
	out *bytes.Buffer // worker → coordinator
}

func (t *tapConn) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.mu.Lock()
	t.in.Write(p[:n])
	t.mu.Unlock()
	return n, err
}

// Write records p before forwarding it: once the coordinator has read
// the worker's result frame, Segment returns and the test reads the
// buffer, possibly before a record made after the write.
func (t *tapConn) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.out.Write(p)
	t.mu.Unlock()
	return t.Conn.Write(p)
}

// tapListener wraps a worker listener, tapping every accepted connection
// in accept order.
type tapListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, mu: &l.mu, in: &bytes.Buffer{}, out: &bytes.Buffer{}}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// frames parses a recorded byte stream back into (type, payload) frames.
func frames(t *testing.T, stream []byte) []struct {
	t frameType
	p []byte
} {
	t.Helper()
	var out []struct {
		t frameType
		p []byte
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	for {
		f, err := transport.ReadFrame(r)
		if err != nil {
			return out
		}
		out = append(out, struct {
			t frameType
			p []byte
		}{frameType(f.Type), f.Payload})
	}
}

// maskWall zeroes the SplitWallNanos field of a result payload (offset 16,
// 8 bytes — the only wall-clock value on the wire) so the rest of the
// frame can be compared byte for byte.
func maskWall(p []byte) []byte {
	masked := bytes.Clone(p)
	if len(masked) >= 24 {
		for i := 16; i < 24; i++ {
			masked[i] = 0
		}
	}
	return masked
}

// TestWireByteStability: two runs of the same job must put byte-identical
// frame sequences on every connection, in both directions. This pins the
// paper's determinism guarantee at the wire: suitor routing, adjacency
// payloads, and handover frames are emitted in sorted order, never map
// order. Only the result frame's wall-clock field may differ.
func TestWireByteStability(t *testing.T) {
	const workers = 2
	addrs := make([]string, workers)
	taps := make([]*tapListener, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tl := &tapListener{Listener: l}
		taps[i] = tl
		addrs[i] = l.Addr().String()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ServeWorker(transport.WrapListener(tl))
		}()
	}
	defer wg.Wait()
	defer func() {
		for _, tl := range taps {
			tl.Listener.Close()
		}
	}()

	im := pixmap.Generate(pixmap.Image3Circles128, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 7}
	eng := New(addrs)
	for run := 0; run < 2; run++ {
		if _, err := eng.Segment(im, cfg); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}

	for w, tl := range taps {
		tl.mu.Lock()
		conns := tl.conns
		tl.mu.Unlock()
		if len(conns) != 2 {
			t.Fatalf("worker %d: %d connections, want one per run", w, len(conns))
		}
		for dir, stream := range map[string]func(c *tapConn) []byte{
			"coordinator→worker": func(c *tapConn) []byte { tl.mu.Lock(); defer tl.mu.Unlock(); return bytes.Clone(c.in.Bytes()) },
			"worker→coordinator": func(c *tapConn) []byte { tl.mu.Lock(); defer tl.mu.Unlock(); return bytes.Clone(c.out.Bytes()) },
		} {
			a, b := frames(t, stream(conns[0])), frames(t, stream(conns[1]))
			if len(a) != len(b) {
				t.Errorf("worker %d %s: run 0 sent %d frames, run 1 sent %d", w, dir, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i].t != b[i].t {
					t.Errorf("worker %d %s frame %d: type %d vs %d", w, dir, i, a[i].t, b[i].t)
					continue
				}
				pa, pb := a[i].p, b[i].p
				if a[i].t == frameResult {
					pa, pb = maskWall(pa), maskWall(pb)
				}
				if !bytes.Equal(pa, pb) {
					t.Errorf("worker %d %s frame %d (type %d): payloads differ between runs", w, dir, i, a[i].t)
				}
			}
		}
	}
}

// hashConn hashes the protocol frames one worker connection carries, per
// direction: type byte, big-endian payload length, payload. Liveness
// frames are skipped (their count depends on timing) and the result
// frame's wall-clock field is masked.
type hashConn struct {
	transport.Conn
	mu      sync.Mutex
	in, out hash.Hash // coordinator → worker, worker → coordinator
}

func (c *hashConn) add(h hash.Hash, f transport.Frame) {
	if t := frameType(f.Type); t == framePing || t == framePong {
		return
	}
	p := f.Payload
	if frameType(f.Type) == frameResult {
		p = maskWall(p)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	h.Write([]byte{f.Type})
	h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(p))))
	h.Write(p)
}

// Send records f before sending it, for the reason tapConn.Write does.
func (c *hashConn) Send(f transport.Frame, timeout time.Duration) error {
	c.add(c.out, f)
	return c.Conn.Send(f, timeout)
}

func (c *hashConn) Recv(timeout time.Duration) (transport.Frame, error) {
	f, err := c.Conn.Recv(timeout)
	if err == nil {
		c.add(c.in, f)
	}
	return f, err
}

// hashListener wraps every accepted connection in a hashConn.
type hashListener struct {
	transport.Listener
	conn chan *hashConn
}

func (l *hashListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	hc := &hashConn{Conn: c, in: sha256.New(), out: sha256.New()}
	l.conn <- hc
	return hc, nil
}

// TestFrameStreamPins pins, across commits, the exact frames one fixed
// 3-worker job puts on every worker connection in both directions: the
// suitor, merge-event and handover payloads, their order, and the result
// frames. TestWireByteStability compares two runs of one build; this test
// compares every build with the recorded digests.
func TestFrameStreamPins(t *testing.T) {
	want := []struct{ in, out string }{
		{"e68c146227d455742906ac056823db896b227827731678d8ede43364dfe3f529", "e7352438432713b4a76390eab4bba6c00ef3b216985d9774c99aa52dbfc5be64"},
		{"8ae80bd7233bff6fdb568de2c0c1a223fddb0a371fa081aff27a35ce36801354", "295704431aedc47e2c2fc7d06d2f84a037171a3ca1d7d29145d0aa19a21e90a8"},
		{"5367bde827218a93116d479554f14139e7b187ef47263e0ef36e4c78de4a495e", "3aaa13b32d2c0e6461f6ebd0a4de7d7e9645b9717bdf7e6eb8127a2e5e00fb4e"},
	}
	mem := transport.NewMem()
	addrs := make([]string, len(want))
	taps := make([]*hashListener, len(want))
	var wg sync.WaitGroup
	for i := range want {
		l, err := mem.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		taps[i] = &hashListener{Listener: l, conn: make(chan *hashConn, 1)}
		addrs[i] = l.Addr()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ServeWorker(taps[i])
		}()
	}
	defer wg.Wait()
	defer func() {
		for _, tl := range taps {
			tl.Close()
		}
	}()

	im := pixmap.Generate(pixmap.Image6Tool256, pixmap.DefaultGenOptions())
	cfg := core.Config{Threshold: 10, Tie: rag.Random, Seed: 7}
	if _, err := NewOver(mem, addrs).Segment(im, cfg); err != nil {
		t.Fatal(err)
	}
	for w, tl := range taps {
		c := <-tl.conn
		c.mu.Lock()
		in, out := hex.EncodeToString(c.in.Sum(nil)), hex.EncodeToString(c.out.Sum(nil))
		c.mu.Unlock()
		if in != want[w].in {
			t.Errorf("worker %d coordinator→worker frames: sha256 %s, want %s", w, in, want[w].in)
		}
		if out != want[w].out {
			t.Errorf("worker %d worker→coordinator frames: sha256 %s, want %s", w, out, want[w].out)
		}
	}
}
