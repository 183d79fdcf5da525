// Container streaming over a byte stream (a live conn, a pipe, or a
// spill file) instead of a whole-file read. The DFCK container itself
// is a self-checksummed byte blob; this layer adds a frame around it —
// magic, length prefix, trailing CRC over the body — so a receiver on
// a long-lived connection knows where the container ends without
// waiting for EOF, and a torn transfer (peer died mid-ship) is
// detected by the frame instead of surfacing later as a corrupt
// section. Session migration ships containers through frames; the
// dfserve drain spill writes the same frames to disk.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// FrameMagic is the 4-byte frame signature preceding each streamed
// container.
const FrameMagic = "DFKF"

// maxFrameBytes bounds a single streamed container (a corrupt or
// hostile length prefix must not allocate unbounded memory).
const maxFrameBytes = 1 << 30

// Send streams the checkpoint over w as one frame: magic, u32 body
// length, the encoded container, and a CRC over the body. It returns
// once the whole frame was written, so a nil error from Send on a conn
// means the peer has (or will have) every byte it needs to verify the
// transfer.
func Send(w io.Writer, c *Checkpoint) error {
	body := c.Encode()
	hdr := make([]byte, 0, 8)
	hdr = append(hdr, FrameMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("ckpt: send header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("ckpt: send body: %w", err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("ckpt: send checksum: %w", err)
	}
	return nil
}

// Receive reads one frame from r and decodes the container inside it.
// A stream that ends mid-frame (the sender died mid-transfer) returns
// an error naming the torn stage rather than a silently truncated
// checkpoint; a body whose CRC does not match fails before Decode ever
// sees the bytes.
func Receive(r io.Reader) (*Checkpoint, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("ckpt: receive header: %w", err)
	}
	if string(hdr[:4]) != FrameMagic {
		return nil, fmt.Errorf("ckpt: bad frame magic %q (want %s)", hdr[:4], FrameMagic)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("ckpt: frame length %d exceeds limit", n)
	}
	// Grow the body as its bytes arrive instead of trusting the length
	// prefix: a torn or hostile stream cannot make the receiver reserve
	// memory it never delivers.
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("ckpt: torn transfer: body: %w", err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("ckpt: torn transfer: checksum: %w", err)
	}
	if got := crc32.ChecksumIEEE(body.Bytes()); got != binary.LittleEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("ckpt: frame checksum mismatch (corrupt transfer)")
	}
	return Decode(body.Bytes())
}
