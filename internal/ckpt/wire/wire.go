// Package wire provides the fixed-width little-endian binary
// primitives the checkpoint format is built from. It is a leaf package
// (standard library only) so every layer of the stack — sim, pedf,
// mach, fault, obs, filterc — can encode its state without import
// cycles.
//
// The encoding is deliberately boring: u8/u32/u64 little-endian,
// signed values bit-cast, strings and byte blobs length-prefixed with
// a u32. Decoding is error-sticky: after the first short read or
// overflow every subsequent read returns the zero value, and Err()
// reports the first failure, so decoders can be written as straight-
// line field lists with a single error check at the end.
package wire

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Writer accumulates an encoded byte stream.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Data returns the encoded bytes. The slice aliases the writer's
// internal buffer; the caller must not write to the Writer afterwards.
func (w *Writer) Data() []byte { return w.buf }

// Reset empties the writer and keeps its buffer, so a writer reused
// across encodings stops allocating once the buffer fits the largest.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Grow makes room for at least n more bytes, so an encoder that knows
// (a bound on) its size grows the buffer once instead of by repeated
// appends.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a bit-cast int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Bool appends 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str appends a u32 length prefix followed by the string bytes.
func (w *Writer) Str(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Bytes appends a u32 length prefix followed by the raw bytes.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// BeginBytes starts a length-prefixed blob encoded in place: it
// appends a u32 placeholder and returns the blob's start, which
// EndBytes back-patches with the length written since. The bytes equal
// Bytes over the same content, with no second writer and no copy.
func (w *Writer) BeginBytes() int {
	w.U32(0)
	return len(w.buf)
}

// EndBytes closes the blob BeginBytes started at start.
func (w *Writer) EndBytes(start int) {
	binary.LittleEndian.PutUint32(w.buf[start-4:], uint32(len(w.buf)-start))
}

// Raw appends bytes verbatim, with no length prefix (container magic).
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a byte stream produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding. The reader does not copy b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the number of unread bytes.
func (r *Reader) Rest() int { return len(r.buf) - r.off }

// Offset returns the current read position.
func (r *Reader) Offset() int { return r.off }

func (r *Reader) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if len(r.buf)-r.off < n {
		r.err = fmt.Errorf("wire: truncated stream: need %d bytes at offset %d, have %d",
			n, r.off, len(r.buf)-r.off)
		return true
	}
	return false
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.fail(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if r.fail(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// I64 reads a bit-cast int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Bool reads a byte and reports whether it is nonzero.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := int(r.U32())
	if r.fail(n) {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}

// Bytes reads a length-prefixed byte blob. The result aliases the
// reader's underlying buffer.
func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if r.fail(n) {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}
