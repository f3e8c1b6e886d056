package comm

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// The control protocol is the serving layer's out-of-band channel to
// worker daemons: a front-end dials a worker, negotiates one engine
// slot over the connection, ships the graph and options, and then
// drives queries. It is deliberately separate from the data-plane
// Endpoint framing — control traffic is low-rate and schema-ful, so
// frames carry JSON documents (plus raw blobs for bulk payloads like
// serialized graphs) instead of the engine's tagged binary messages.
//
// Frame layout: kind(1) len(4 LE) payload. Kind 'J' payloads are JSON
// envelopes {type, body}; kind 'B' payloads are opaque blobs whose
// meaning is established by the preceding JSON message.

const (
	ctrlFrameJSON = 'J'
	ctrlFrameBlob = 'B'

	// MaxCtrlFrame bounds a single control frame. Graph blobs dominate;
	// 1 GiB comfortably covers every graph this runtime can hold while
	// still rejecting a corrupt length prefix before allocating.
	MaxCtrlFrame = 1 << 30
)

// CtrlMsg is the JSON envelope every non-blob control frame carries.
type CtrlMsg struct {
	Type string          `json:"type"`
	Body json.RawMessage `json:"body,omitempty"`
}

// CtrlConn is one control-protocol connection. Reads and writes are
// each internally serialized, so one goroutine may send while another
// receives, but concurrent senders interleave whole frames, never
// bytes.
type CtrlConn struct {
	c net.Conn

	wmu sync.Mutex
	bw  *bufio.Writer

	rmu sync.Mutex
	br  *bufio.Reader

	closeOnce sync.Once
	closeErr  error
}

// NewCtrlConn wraps an established connection in control framing.
func NewCtrlConn(c net.Conn) *CtrlConn {
	return &CtrlConn{
		c:  c,
		bw: bufio.NewWriter(c),
		br: bufio.NewReader(c),
	}
}

// DialCtrl connects to a worker's control address.
func DialCtrl(addr string, timeout time.Duration) (*CtrlConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("comm: control dial %s: %w", addr, err)
	}
	return NewCtrlConn(c), nil
}

// RemoteAddr names the peer, for logs and error messages.
func (cc *CtrlConn) RemoteAddr() string { return cc.c.RemoteAddr().String() }

// SetDeadline bounds the next reads and writes (zero clears it).
func (cc *CtrlConn) SetDeadline(t time.Time) error { return cc.c.SetDeadline(t) }

// classify wraps errors that mean the connection is gone — EOF at or
// inside a frame, a reset or closed socket — as *ClosedError, so a
// control-protocol failure that races connection close surfaces through
// the same typed taxonomy the data plane uses (cliutil.ErrorReport and
// the pool's peer-lost path both classify with errors.As, and a bare
// io.EOF would fall through to "unclassified"). Other errors (deadline
// expiry, JSON trouble) pass through with a generic wrap.
func (cc *CtrlConn) classify(op string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return &ClosedError{Op: op, Addr: cc.RemoteAddr(), Cause: err}
	}
	if op == "send" {
		return fmt.Errorf("comm: control write: %w", err)
	}
	return fmt.Errorf("comm: control read: %w", err)
}

func (cc *CtrlConn) writeFrame(kind byte, payload []byte) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	var hdr [5]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := cc.bw.Write(hdr[:]); err != nil {
		return cc.classify("send", err)
	}
	if _, err := cc.bw.Write(payload); err != nil {
		return cc.classify("send", err)
	}
	if err := cc.bw.Flush(); err != nil {
		return cc.classify("send", err)
	}
	return nil
}

func (cc *CtrlConn) readFrame() (kind byte, payload []byte, err error) {
	cc.rmu.Lock()
	defer cc.rmu.Unlock()
	var hdr [5]byte
	if _, err := io.ReadFull(cc.br, hdr[:]); err != nil {
		return 0, nil, cc.classify("recv", err)
	}
	size := binary.LittleEndian.Uint32(hdr[1:])
	if size > MaxCtrlFrame {
		return 0, nil, fmt.Errorf("comm: control frame of %d bytes exceeds limit %d", size, MaxCtrlFrame)
	}
	payload = make([]byte, size)
	if _, err := io.ReadFull(cc.br, payload); err != nil {
		return 0, nil, cc.classify("recv", err)
	}
	return hdr[0], payload, nil
}

// Send marshals body into a typed JSON envelope and writes it as one
// frame. A nil body sends an envelope with no payload.
func (cc *CtrlConn) Send(msgType string, body any) error {
	env := CtrlMsg{Type: msgType}
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("comm: control marshal %s: %w", msgType, err)
		}
		env.Body = b
	}
	frame, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("comm: control marshal %s: %w", msgType, err)
	}
	return cc.writeFrame(ctrlFrameJSON, frame)
}

// Recv reads the next JSON envelope. A blob frame in this position is a
// protocol violation.
func (cc *CtrlConn) Recv() (CtrlMsg, error) {
	kind, payload, err := cc.readFrame()
	if err != nil {
		return CtrlMsg{}, err
	}
	if kind != ctrlFrameJSON {
		return CtrlMsg{}, fmt.Errorf("comm: expected control message, got frame kind %q", kind)
	}
	var env CtrlMsg
	if err := json.Unmarshal(payload, &env); err != nil {
		return CtrlMsg{}, fmt.Errorf("comm: bad control envelope: %w", err)
	}
	return env, nil
}

// Expect receives the next envelope and checks its type, decoding the
// body into out when non-nil. It is the lockstep-protocol helper: any
// other message type is an error naming both sides' expectation.
func (cc *CtrlConn) Expect(msgType string, out any) error {
	env, err := cc.Recv()
	if err != nil {
		return err
	}
	if env.Type != msgType {
		return fmt.Errorf("comm: control expected %q, peer sent %q", msgType, env.Type)
	}
	if out != nil {
		if err := json.Unmarshal(env.Body, out); err != nil {
			return fmt.Errorf("comm: bad %q body: %w", msgType, err)
		}
	}
	return nil
}

// SendBlob writes one opaque blob frame.
func (cc *CtrlConn) SendBlob(b []byte) error {
	return cc.writeFrame(ctrlFrameBlob, b)
}

// RecvBlob reads the next frame, which must be a blob.
func (cc *CtrlConn) RecvBlob() ([]byte, error) {
	kind, payload, err := cc.readFrame()
	if err != nil {
		return nil, err
	}
	if kind != ctrlFrameBlob {
		return nil, fmt.Errorf("comm: expected control blob, got frame kind %q", kind)
	}
	return payload, nil
}

// Close shuts the connection down; safe to call repeatedly.
func (cc *CtrlConn) Close() error {
	cc.closeOnce.Do(func() { cc.closeErr = cc.c.Close() })
	return cc.closeErr
}

// Chunked blob transfer
//
// A bulk payload (a serialized graph) larger than one comfortable
// control frame ships as a sequence of fixed-size chunks, each a
// "chunk" JSON envelope carrying offset/size/total plus a CRC32 of the
// chunk bytes, followed by the blob frame itself. The receiver
// acknowledges every chunk ("chunk-ack" with its new byte count) before
// the sender emits the next one. The lockstep ack is what makes
// resume-from-last-acked well-defined: when the connection dies
// mid-transfer, the receiver retains the contiguous prefix it has
// acknowledged, reports that offset in the next transfer negotiation,
// and the sender restarts from there instead of byte zero.

// DefaultChunkBytes is the chunk size bulk transfers use unless the
// caller picks another: big enough to amortize framing, small enough
// that a flaky link loses at most one chunk of progress.
const DefaultChunkBytes = 256 << 10

// ChunkMsg is the per-chunk header envelope.
type ChunkMsg struct {
	Offset int    `json:"offset"` // byte offset of this chunk in the blob
	Size   int    `json:"size"`   // chunk length in bytes
	Total  int    `json:"total"`  // full blob length
	CRC    uint32 `json:"crc"`    // CRC32 (IEEE) of the chunk bytes
}

// ChunkAckMsg acknowledges a chunk: Offset is the receiver's contiguous
// byte count after absorbing it.
type ChunkAckMsg struct {
	Offset int `json:"offset"`
}

// SendBlobChunked ships data[offset:] as acknowledged chunks of
// chunkBytes (DefaultChunkBytes when non-positive). offset supports
// resume: a receiver that already holds a prefix reports its length and
// the sender skips it. The caller is responsible for having agreed on
// the transfer (and its total size) beforehand.
func (cc *CtrlConn) SendBlobChunked(data []byte, offset, chunkBytes int) error {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if offset < 0 || offset > len(data) {
		return fmt.Errorf("comm: chunked send resume offset %d outside blob of %d bytes", offset, len(data))
	}
	for off := offset; off < len(data); {
		n := len(data) - off
		if n > chunkBytes {
			n = chunkBytes
		}
		chunk := data[off : off+n]
		hdr := ChunkMsg{Offset: off, Size: n, Total: len(data), CRC: crc32.ChecksumIEEE(chunk)}
		if err := cc.Send("chunk", hdr); err != nil {
			return err
		}
		if err := cc.SendBlob(chunk); err != nil {
			return err
		}
		var ack ChunkAckMsg
		if err := cc.Expect("chunk-ack", &ack); err != nil {
			return err
		}
		if ack.Offset != off+n {
			return fmt.Errorf("comm: chunk ack for offset %d, want %d", ack.Offset, off+n)
		}
		off += n
	}
	return nil
}

// RecvBlobChunked receives an acknowledged chunk stream into buf —
// normally empty, or the retained prefix of an interrupted transfer —
// until total bytes have arrived. Every return hands back the
// accumulated buffer, so on error the caller can stash it and resume
// the transfer on a fresh connection from len(buf).
func (cc *CtrlConn) RecvBlobChunked(buf []byte, total int) ([]byte, error) {
	if len(buf) > total {
		return buf, fmt.Errorf("comm: chunked recv holds %d bytes of a %d-byte blob", len(buf), total)
	}
	for len(buf) < total {
		var hdr ChunkMsg
		if err := cc.Expect("chunk", &hdr); err != nil {
			return buf, err
		}
		if hdr.Total != total || hdr.Offset != len(buf) || hdr.Size <= 0 || hdr.Offset+hdr.Size > total {
			return buf, fmt.Errorf("comm: chunk framing offset=%d size=%d total=%d, receiver at %d/%d",
				hdr.Offset, hdr.Size, hdr.Total, len(buf), total)
		}
		chunk, err := cc.RecvBlob()
		if err != nil {
			return buf, err
		}
		if len(chunk) != hdr.Size {
			return buf, fmt.Errorf("comm: chunk carried %d bytes, header said %d", len(chunk), hdr.Size)
		}
		if crc32.ChecksumIEEE(chunk) != hdr.CRC {
			return buf, fmt.Errorf("comm: chunk at offset %d failed CRC", hdr.Offset)
		}
		buf = append(buf, chunk...)
		if err := cc.Send("chunk-ack", ChunkAckMsg{Offset: len(buf)}); err != nil {
			return buf, err
		}
	}
	return buf, nil
}
