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
	"netkit/router"
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
//	'B'  packet batch:  u32 count | u16 len+name | count×(u32 len | payload)
//	'E'  emit batch:    u32 count | u16 len+name | u16 len+port | count×(u32 len | payload)
//	'A'  batch ack:     u32 failed | u8 flags | u16 len+err
//
// Binary kinds ('B'/'E'/'A') follow the kind byte with a u32 payload
// length; all integers are little-endian. The gob decoder reads straight
// off the shared bufio.Reader (which satisfies io.ByteReader, so gob
// consumes exactly one message and never over-buffers past its boundary).
//
// The client sends 'G' requests and 'B' batches; the host answers each,
// in arrival order, with a 'G' response or an 'A' ack, and sends 'E'
// frames whenever a hosted component emits. Answers carry no request id:
// the stream's order pairs each answer with the oldest request not yet
// answered.
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

// getFrame lends a frame buffer. putFrame takes back the same pointer
// with the grown slice, so returning it boxes nothing.
func getFrame() *[]byte {
	return framePool.Get().(*[]byte)
}

func putFrame(p *[]byte, b []byte) {
	if cap(b) > maxFramePayload {
		return
	}
	*p = b[:0]
	framePool.Put(p)
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
	frame, err := w.gobFrame(m)
	if err != nil {
		return err
	}
	_, err = w.conn.Write(frame)
	return err
}

// gobFrame encodes m as a 'G' frame in the wire's scratch buffer. The
// caller holds wmu and writes the frame before releasing it: the gob
// stream's type definitions must reach the peer in encoding order.
func (w *wire) gobFrame(m *message) ([]byte, error) {
	w.gobBuf.Reset()
	w.gobBuf.WriteByte(frameGob)
	if err := w.enc.Encode(m); err != nil {
		return nil, err
	}
	return w.gobBuf.Bytes(), nil
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

// carve decodes the tail every packet frame shares — count×(u32 len |
// payload) — into packets aliasing slab zero-copy (heap-owned when slab
// is nil), their descriptors riding the slab (router.SlabPackets). It
// settles slab at one reference per packet plus the carver's own, which
// the caller drops with releaseSlab after PutBatch: until then no
// packet's Release can recycle the slab, and its descriptors with it,
// under the caller (the host's contained-panic path releases a packet
// the component already had). It returns the batch and its payload
// bytes, or ok false on a malformed frame, with slab released.
func carve(r *binReader, count int, slab *buffers.Buffer) (batch []*router.Packet, total int, ok bool) {
	malformed := func() ([]*router.Packet, int, bool) {
		releaseSlab(slab)
		return nil, 0, false
	}
	if r.err || count < 0 || count > (len(r.b)-r.off)/4 {
		return malformed()
	}
	var pkts []router.Packet
	if slab != nil {
		pkts = router.SlabPackets(slab, count)
	} else {
		pkts = make([]router.Packet, count)
	}
	batch = router.GetBatch()
	for i := range pkts {
		pkts[i] = router.Packet{Data: r.bytes(int(r.u32())), Buf: slab}
		batch = append(batch, &pkts[i])
		total += len(pkts[i].Data)
	}
	if r.err {
		router.PutBatch(batch)
		return malformed()
	}
	if slab != nil {
		slab.RetainN(count) // Get's reference stays the carver's own
	}
	return batch, total, true
}

// releaseSlab drops the carver's own reference on slab (nil: heap-owned).
func releaseSlab(slab *buffers.Buffer) {
	if slab != nil {
		_ = slab.Release()
	}
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

// finishFrame patches the payload length of the frame begun at start and
// returns buf.
func finishFrame(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start+1:start+5], uint32(len(buf)-start-5))
	return buf
}

// appendAck appends an 'A' frame to buf.
func appendAck(buf []byte, failed uint32, contained bool, errMsg string) []byte {
	start := len(buf)
	buf = beginFrame(buf, frameAck)
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
	return finishFrame(buf, start)
}
