package comm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// ctrlPair builds a connected CtrlConn pair over loopback TCP.
func ctrlPair(t *testing.T) (*CtrlConn, *CtrlConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	client, err := DialCtrl(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	server := NewCtrlConn(r.c)
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestCtrlConnRoundTrip(t *testing.T) {
	client, server := ctrlPair(t)

	type hello struct {
		Name  string `json:"name"`
		Nodes int    `json:"nodes"`
	}
	if err := client.Send("hello", hello{Name: "w1", Nodes: 3}); err != nil {
		t.Fatal(err)
	}
	var got hello
	if err := server.Expect("hello", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "w1" || got.Nodes != 3 {
		t.Fatalf("got %+v", got)
	}

	// A bodyless message decodes too.
	if err := server.Send("ack", nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Expect("ack", nil); err != nil {
		t.Fatal(err)
	}

	// Blob frames interleave with JSON frames in declared order.
	blob := bytes.Repeat([]byte{0xAB}, 1<<16)
	if err := client.Send("graph", nil); err != nil {
		t.Fatal(err)
	}
	if err := client.sendBlob(blob); err != nil {
		t.Fatal(err)
	}
	if err := server.Expect("graph", nil); err != nil {
		t.Fatal(err)
	}
	got2, err := server.recvBlob()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, blob) {
		t.Fatalf("blob mismatch: %d bytes", len(got2))
	}
}

func TestCtrlConnExpectMismatch(t *testing.T) {
	client, server := ctrlPair(t)
	if err := client.Send("run", nil); err != nil {
		t.Fatal(err)
	}
	err := server.Expect("close", nil)
	if err == nil || !strings.Contains(err.Error(), `expected "close"`) {
		t.Fatalf("mismatch error: %v", err)
	}

	// A blob where a JSON envelope is expected is rejected, and vice
	// versa.
	if err := client.sendBlob([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err == nil {
		t.Fatal("blob accepted as JSON envelope")
	}
	if err := client.Send("x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := server.recvBlob(); err == nil {
		t.Fatal("JSON envelope accepted as blob")
	}
}

func TestCtrlConnFrameLimitAndEOF(t *testing.T) {
	client, server := ctrlPair(t)

	// A corrupt length prefix is rejected before allocation.
	raw := make([]byte, 5)
	raw[0] = ctrlFrameJSON
	binary.LittleEndian.PutUint32(raw[1:], uint32(maxCtrlFrame)+1)
	if _, err := client.c.Write(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversize frame: %v", err)
	}

	// A vanished peer surfaces as a read error, not a hang.
	client.Close()
	if _, err := server.Recv(); err == nil {
		t.Fatal("read from closed peer succeeded")
	}
}

func TestCtrlMsgEnvelopeShape(t *testing.T) {
	// The wire envelope is stable JSON: {type, body}.
	env := ctrlMsg{Type: "build", Body: json.RawMessage(`{"nodes":2}`)}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"type":"build","body":{"nodes":2}}` {
		t.Fatalf("envelope %s", b)
	}
}

// TestCtrlConnCloseRaceIsClosedError pins the taxonomy contract for the
// control plane: a peer vanishing mid-protocol — clean close (EOF at a
// frame boundary), close inside a frame, or a closed local socket —
// must surface as *ClosedError, never a bare io.EOF, so error
// classification (cliutil.ErrorReport, the pool's peer-lost path) files
// it under peer loss instead of "unclassified failure".
func TestCtrlConnCloseRaceIsClosedError(t *testing.T) {
	// Clean close: EOF at a frame boundary.
	client, server := ctrlPair(t)
	client.Close()
	_, err := server.Recv()
	var ce *ClosedError
	if !errors.As(err, &ce) {
		t.Fatalf("recv after peer close: %T %v, want *ClosedError", err, err)
	}
	if ce.Addr == "" {
		t.Fatalf("control ClosedError has no peer address: %v", ce)
	}

	// Mid-frame close: the header arrives, the payload never does.
	client2, server2 := ctrlPair(t)
	raw := make([]byte, 5)
	raw[0] = ctrlFrameJSON
	binary.LittleEndian.PutUint32(raw[1:], 1024)
	if _, err := client2.c.Write(raw); err != nil {
		t.Fatal(err)
	}
	client2.Close()
	_, err = server2.Recv()
	if !errors.As(err, &ce) {
		t.Fatalf("recv after mid-frame close: %T %v, want *ClosedError", err, err)
	}

	// Local close: operations on our own closed conn classify the same
	// way (net.ErrClosed), and sends to a dead peer do too.
	client3, server3 := ctrlPair(t)
	server3.Close()
	if _, err := server3.Recv(); !errors.As(err, &ce) {
		t.Fatalf("recv on locally closed conn: %T %v, want *ClosedError", err, err)
	}
	// Writes may need a couple of frames before the broken pipe is
	// observed (the first write often lands in the kernel buffer).
	var sendErr error
	for i := 0; i < 50 && sendErr == nil; i++ {
		sendErr = client3.Send("ping", nil)
		time.Sleep(time.Millisecond)
	}
	if !errors.As(sendErr, &ce) {
		t.Fatalf("send to dead peer: %T %v, want *ClosedError", sendErr, sendErr)
	}
	if ce.Op != "send" {
		t.Fatalf("send-side ClosedError op %q, want send", ce.Op)
	}
}

// TestChunkedBlobRoundTrip ships a blob that spans many chunks and
// checks byte identity plus the lockstep ack protocol.
func TestChunkedBlobRoundTrip(t *testing.T) {
	client, server := ctrlPair(t)
	blob := make([]byte, 1<<20+3) // deliberately not chunk-aligned
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	errc := make(chan error, 1)
	go func() { errc <- client.SendBlobChunked(blob, 0, 64<<10) }()
	got, err := server.RecvBlobChunked(nil, len(blob))
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("chunked round trip corrupted the blob")
	}
}

// TestChunkedBlobResumeAfterDisconnect is the framing-level acceptance
// test for resume-from-last-acked: the connection dies mid-transfer,
// the receiver retains its acknowledged prefix, and a second connection
// finishes the transfer from that offset — the assembled blob is
// byte-identical, with no chunk shipped twice past the resume point.
func TestChunkedBlobResumeAfterDisconnect(t *testing.T) {
	client, server := ctrlPair(t)
	blob := make([]byte, 512<<10)
	for i := range blob {
		blob[i] = byte(i>>8 ^ i)
	}
	const chunk = 32 << 10

	// The receiver processes exactly 4 chunks at the framing level —
	// header, blob, ack — then the link dies mid-transfer.
	sendErr := make(chan error, 1)
	go func() { sendErr <- client.SendBlobChunked(blob, 0, chunk) }()
	var partial []byte
	for i := 0; i < 4; i++ {
		var hdr chunkMsg
		if err := server.Expect("chunk", &hdr); err != nil {
			t.Errorf("chunk %d header: %v", i, err)
			return
		}
		if hdr.Offset != len(partial) || hdr.Total != len(blob) {
			t.Errorf("chunk %d framed offset=%d total=%d, want offset=%d total=%d",
				i, hdr.Offset, hdr.Total, len(partial), len(blob))
			return
		}
		piece, err := server.recvBlob()
		if err != nil {
			t.Errorf("chunk %d blob: %v", i, err)
			return
		}
		partial = append(partial, piece...)
		if err := server.Send("chunk-ack", chunkAckMsg{Offset: len(partial)}); err != nil {
			t.Errorf("chunk %d ack: %v", i, err)
			return
		}
	}
	server.Close()
	client.Close()
	if err := <-sendErr; err == nil {
		t.Fatal("sender finished despite the disconnect")
	}
	if len(partial) != 4*chunk {
		t.Fatalf("retained prefix is %d bytes, want %d", len(partial), 4*chunk)
	}
	if !bytes.Equal(partial, blob[:len(partial)]) {
		t.Fatal("retained prefix corrupted")
	}

	// Fresh connection; the transfer resumes from the retained offset.
	client2, server2 := ctrlPair(t)
	errc := make(chan error, 1)
	go func() { errc <- client2.SendBlobChunked(blob, len(partial), chunk) }()
	full, err := server2.RecvBlobChunked(partial, len(blob))
	if err != nil {
		t.Fatalf("resumed recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("resumed send: %v", err)
	}
	if !bytes.Equal(full, blob) {
		t.Fatal("resumed transfer did not reassemble the blob")
	}
}

// TestChunkedBlobRejectsCorruptChunk flips a byte in flight and checks
// the CRC catches it before the blob is accepted.
func TestChunkedBlobRejectsCorruptChunk(t *testing.T) {
	client, server := ctrlPair(t)
	blob := []byte("the quick brown fox jumps over the lazy dog")

	go func() {
		// Hand-roll one chunk with a wrong CRC.
		hdr := chunkMsg{Offset: 0, Size: len(blob), Total: len(blob), CRC: 0xdeadbeef}
		client.Send("chunk", hdr)
		client.sendBlob(blob)
	}()
	if _, err := server.RecvBlobChunked(nil, len(blob)); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupt chunk accepted: %v", err)
	}
}
