package ipc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"

	"netkit/internal/buffers"
)

// The wire carries two interleaved encodings on one stream. Control ops
// (instantiate, bindout, filter management) are gob — self-describing,
// and rare enough that its cost does not matter. Packets only ever travel
// as length-prefixed binary frames that carry a whole batch in one
// buffer, so a window of batches costs a handful of writes.
//
// Every frame starts with a one-byte kind:
//
//	'G'  gob message (self-delimiting; no length prefix)
//	'B'  packet batch:  u32 slot | u16 len+name | u32 count | count×u32 lens | payloads
//	'E'  emit batch:    u16 len+name | u16 len+port | u32 count | count×u32 lens | payloads
//	'A'  batch ack:     u32 slot | u32 delivered | u32 failed | u8 flags | u16 len+err
//
// Binary kinds ('B'/'E'/'A') follow the kind byte with a u32 payload
// length; all integers are little-endian. The gob decoder reads straight
// off the shared bufio.Reader (which satisfies io.ByteReader, so gob
// consumes exactly one message and never over-buffers past its boundary).
const (
	frameGob   = 'G'
	frameBatch = 'B'
	frameEmit  = 'E'
	frameAck   = 'A'
)

// DefaultWindow is the number of batches a client keeps in flight
// before PushBatch blocks on credit — deep enough to hide a round-trip,
// shallow enough to bound buffering on host death.
const DefaultWindow = 32

// ackFlagContained marks an ack whose failures were contained panics.
const ackFlagContained = 1

// maxFramePayload bounds a single binary frame; anything larger is a
// protocol error rather than an allocation request.
const maxFramePayload = 1 << 26 // 64 MiB

// frameSlabs backs inbound binary frames with refcounted slabs so decoded
// packets can alias the receive buffer zero-copy: the slab is released
// only when the last carved packet is. Oversized frames fall back to a
// plain heap slice (GC-owned, safe to alias without refcounts).
var frameSlabs = buffers.MustNewPool([]int{4096, 65536, 1 << 20}, 64, 0)

// framePool recycles outbound frame-assembly buffers.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getFrame() []byte {
	return (*framePool.Get().(*[]byte))[:0]
}

func putFrame(b []byte) {
	if cap(b) > maxFramePayload {
		return
	}
	framePool.Put(&b)
}

func appendU16(b []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendStr(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// wire wraps a conn with the shared framing state: one buffered reader
// feeding both the gob decoder and binary frame reads, and a write mutex
// serialising whole frames (gob messages are staged in a scratch buffer so
// each frame hits the conn as a single write).
type wire struct {
	conn net.Conn
	br   *bufio.Reader
	dec  *gob.Decoder

	wmu    sync.Mutex
	enc    *gob.Encoder
	gobBuf bytes.Buffer
}

func newWire(conn net.Conn) *wire {
	w := &wire{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	w.dec = gob.NewDecoder(w.br)
	w.enc = gob.NewEncoder(&w.gobBuf)
	return w
}

// send frames one gob message: kind byte + gob body, one conn write.
func (w *wire) send(m *message) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.gobBuf.Reset()
	w.gobBuf.WriteByte(frameGob)
	if err := w.enc.Encode(m); err != nil {
		return err
	}
	_, err := w.conn.Write(w.gobBuf.Bytes())
	return err
}

// sendRaw writes one pre-assembled binary frame (kind + length + payload).
func (w *wire) sendRaw(frame []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	_, err := w.conn.Write(frame)
	return err
}

// readKind returns the next frame's kind byte.
func (w *wire) readKind() (byte, error) {
	return w.br.ReadByte()
}

// readGob decodes one gob message (the 'G' kind byte already consumed).
func (w *wire) readGob() (*message, error) {
	var m message
	if err := w.dec.Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// readPayload reads a binary frame's length-prefixed payload. It returns
// the payload bytes plus the slab refcounting them, or slab == nil when
// the bytes are heap-owned (small scratch reuse or oversized fallback).
// Callers that retain slices into the payload must balance the slab with
// Retain/Release; callers that copy out should Release it immediately.
func (w *wire) readPayload(scratch []byte) (payload []byte, slab *buffers.Buffer, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(w.br, hdr[:]); err != nil {
		return nil, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("ipc: frame payload %d exceeds limit", n)
	}
	if n <= cap(scratch) {
		payload = scratch[:n]
	} else if b, err := frameSlabs.Get(n); err == nil {
		slab, payload = b, b.Bytes()
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(w.br, payload); err != nil {
		if slab != nil {
			_ = slab.Release()
		}
		return nil, nil, err
	}
	return payload, slab, nil
}

// binReader walks a binary frame payload.
type binReader struct {
	b   []byte
	off int
	err bool
}

func (r *binReader) u8() byte {
	if r.off+1 > len(r.b) {
		r.err = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *binReader) u16() uint16 {
	if r.off+2 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *binReader) u32() uint32 {
	if r.off+4 > len(r.b) {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// bytes returns n payload bytes without copying (aliases the frame).
func (r *binReader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.err = true
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// str copies n bytes out as a string (frames are recycled; names outlive
// them).
func (r *binReader) str() string {
	n := int(r.u16())
	b := r.bytes(n)
	if r.err {
		return ""
	}
	return string(b)
}

// beginFrame starts a binary frame in buf: kind byte plus a payload-length
// placeholder that finishFrame patches.
func beginFrame(buf []byte, kind byte) []byte {
	buf = append(buf, kind)
	return appendU32(buf, 0)
}

// finishFrame patches the payload length and returns the complete frame.
func finishFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)-5))
	return buf
}

// encodeAck assembles an 'A' frame into a pooled buffer.
func encodeAck(slot, delivered, failed uint32, contained bool, errMsg string) []byte {
	buf := beginFrame(getFrame(), frameAck)
	buf = appendU32(buf, slot)
	buf = appendU32(buf, delivered)
	buf = appendU32(buf, failed)
	var flags byte
	if contained {
		flags |= ackFlagContained
	}
	buf = append(buf, flags)
	if len(errMsg) > 512 {
		errMsg = errMsg[:512]
	}
	buf = appendStr(buf, errMsg)
	return finishFrame(buf)
}
