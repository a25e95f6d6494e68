// Package trace implements API-call tracing: a compact binary format for
// gfxapi command streams, a Recorder that captures a device's calls, and
// a Player that reproduces a captured stream against a fresh device.
//
// This mirrors the paper's methodology (§II.B and ref [4]): a tracer
// intercepts calls at the graphics library boundary and stores them so
// the identical input can be replayed any number of times — on the real
// card for API statistics, or through the simulator for
// microarchitectural ones.
//
// Because the whole capture-once/replay-many methodology collapses if a
// corrupt trace can crash or OOM the player, the decoder is validating:
// every wire length is checked against Limits before allocation, large
// payloads are read in chunks so truncation surfaces before memory is
// committed, and failures carry their command index and byte offset in
// typed *FormatError / *ReplayError values.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
)

// magic identifies a trace stream.
var magic = [4]byte{'G', 'T', 'R', 'C'}

// Trace format versions. Version 1 streamed commands back to back;
// version 2 frames each command as op byte + u32 payload length +
// payload, which lets a reader stay in sync across commands it cannot
// decode (unknown ops from a newer writer, corrupt payloads). The
// reader negotiates: it accepts both, the recorder writes the latest.
const (
	version    = 2
	minVersion = 1
)

// Recorder captures a device's API calls into a writer. Attach with
// Device.SetRecorder.
type Recorder struct {
	w   *bufio.Writer
	err error
	n   int64 // commands written

	// scratch holds one command's encoded payload so its length can be
	// written before its bytes (the v2 framing).
	scratch bytes.Buffer
	sw      *bufio.Writer
}

// NewRecorder creates a recorder writing the trace header for the given
// API dialect.
func NewRecorder(w io.Writer, api gfxapi.API) (*Recorder, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(byte(api)); err != nil {
		return nil, err
	}
	r := &Recorder{w: bw}
	r.sw = bufio.NewWriter(&r.scratch)
	return r, nil
}

// Record implements gfxapi.Recorder.
func (r *Recorder) Record(cmd gfxapi.Command) {
	if r.err != nil {
		return
	}
	r.scratch.Reset()
	r.sw.Reset(&r.scratch)
	if r.err = writePayload(r.sw, &cmd); r.err != nil {
		return
	}
	if r.err = r.sw.Flush(); r.err != nil {
		return
	}
	if r.err = writeU8(r.w, uint8(cmd.Op)); r.err != nil {
		return
	}
	if r.err = writeU32(r.w, uint32(r.scratch.Len())); r.err != nil {
		return
	}
	if _, r.err = r.w.Write(r.scratch.Bytes()); r.err != nil {
		return
	}
	r.n++
}

// Commands returns the number of commands recorded so far.
func (r *Recorder) Commands() int64 { return r.n }

// Close flushes the trace; the first write error, if any, surfaces here.
func (r *Recorder) Close() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// countingReader tracks how many bytes the buffered reader has pulled
// from the underlying stream, so the decoder can report exact byte
// offsets (underlying count minus what is still buffered).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Reader decodes a trace stream command by command, validating every
// length field against its Limits before allocating.
type Reader struct {
	cr  *countingReader
	br  *bufio.Reader
	api gfxapi.API
	ver uint8

	dec  decoder // reused by every command; holds the limits and budget
	cmds int64   // commands decoded (including failed ones)
}

// NewReader validates the header and prepares to decode commands with
// DefaultLimits.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderLimits(r, DefaultLimits())
}

// NewReaderLimits is NewReader with explicit decode limits. Header
// damage is reported as a *FormatError with Cmd -1, so callers can
// classify a rejected file without caring where the corruption sits.
func NewReaderLimits(r io.Reader, lim Limits) (*Reader, error) {
	headerErr := func(err error) error {
		return &FormatError{Cmd: -1, Err: err}
	}
	cr := &countingReader{r: r}
	br := bufio.NewReader(cr)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, headerErr(fmt.Errorf("truncated: %w", err))
	}
	if m != magic {
		return nil, headerErr(fmt.Errorf("bad magic %q", m))
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, headerErr(fmt.Errorf("truncated: %w", err))
	}
	if ver < minVersion || ver > version {
		return nil, headerErr(fmt.Errorf("unsupported version %d (reader handles %d-%d)",
			ver, minVersion, version))
	}
	apiB, err := br.ReadByte()
	if err != nil {
		return nil, headerErr(fmt.Errorf("truncated: %w", err))
	}
	if apiB > uint8(gfxapi.Direct3D) {
		return nil, headerErr(fmt.Errorf("unknown API dialect %d", apiB))
	}
	return &Reader{cr: cr, br: br, api: gfxapi.API(apiB), ver: ver,
		dec: decoder{r: br, lim: lim}}, nil
}

// API returns the dialect recorded in the header.
func (r *Reader) API() gfxapi.API { return r.api }

// Version returns the negotiated format version.
func (r *Reader) Version() uint8 { return r.ver }

// Offset returns the byte offset of the next unread trace byte.
func (r *Reader) Offset() int64 { return r.cr.n - int64(r.br.Buffered()) }

// Commands returns how many commands Next has consumed so far,
// including commands that failed to decode.
func (r *Reader) Commands() int64 { return r.cmds }

// Allocated returns the cumulative bytes the decoder has materialized.
func (r *Reader) Allocated() int64 { return r.dec.alloc }

// Next decodes the next command; io.EOF signals a clean end of trace.
// Any other failure is a *FormatError carrying the command index, byte
// offset and op. A stream that ends inside a command wraps
// io.ErrUnexpectedEOF. On a v2 stream, a *FormatError with
// Resynced() == true leaves the reader positioned at the next command,
// so a lenient caller may keep reading.
func (r *Reader) Next() (gfxapi.Command, error) {
	var c gfxapi.Command
	err := r.next(&c)
	return c, err
}

// next is Next decoding into *c, which it overwrites; the player reuses
// one Command across the whole stream instead of copying the union out
// of every call.
func (r *Reader) next(c *gfxapi.Command) error {
	*c = gfxapi.Command{}
	start := r.Offset()
	opB, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return io.EOF // clean end of trace
		}
		return r.formatErr(start, c.Op, err)
	}
	c.Op = gfxapi.Op(opB)
	idx := r.cmds
	r.cmds++

	d := &r.dec
	d.rem = -1
	if r.ver >= 2 {
		n, err := d.readU32()
		if err != nil {
			return r.cmdErr(idx, start, c.Op, eofToUnexpected(err))
		}
		if int64(n) > d.lim.MaxCommandBytes {
			return r.cmdErr(idx, start, c.Op,
				fmt.Errorf("payload of %d bytes: %w", n, ErrLimit))
		}
		d.rem = int64(n)
	}

	err = readPayload(d, c)
	if err == nil && d.rem > 0 {
		// A known op that left payload bytes unread is corrupt (the
		// encoder never writes trailing bytes).
		err = fmt.Errorf("%d trailing payload bytes", d.rem)
	}
	if err == nil {
		return nil
	}
	err = eofToUnexpected(err)

	// On a framed stream the payload length is known even when its
	// contents are not decodable, so skip to the next command boundary
	// and mark the error resynced.
	if d.rem > 0 && !isTruncation(err) {
		if _, derr := io.CopyN(io.Discard, r.br, d.rem); derr != nil {
			return r.cmdErr(idx, start, c.Op, io.ErrUnexpectedEOF)
		}
		d.rem = 0
	}
	fe := &FormatError{Cmd: idx, Offset: start, Op: c.Op, Err: err}
	fe.resynced = r.ver >= 2 && d.rem == 0 && !isTruncation(err)
	return fe
}

func (r *Reader) cmdErr(idx, off int64, op gfxapi.Op, err error) error {
	return &FormatError{Cmd: idx, Offset: off, Op: op, Err: err}
}

func (r *Reader) formatErr(off int64, op gfxapi.Op, err error) error {
	return &FormatError{Cmd: r.cmds, Offset: off, Op: op, Err: err}
}

// eofToUnexpected converts a bare EOF inside a command payload into
// io.ErrUnexpectedEOF: the stream ended where bytes were promised.
func eofToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// isTruncation reports whether err means the underlying stream ran out,
// as opposed to the bytes being present but invalid.
func isTruncation(err error) bool {
	return err == io.ErrUnexpectedEOF || err == io.EOF
}

// --- binary encoding helpers (writer side) ---

func writeU8(w *bufio.Writer, v uint8) error { return w.WriteByte(v) }

func writeU32(w *bufio.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeF32(w *bufio.Writer, v float32) error {
	return writeU32(w, math.Float32bits(v))
}

func writeVec4(w *bufio.Writer, v gmath.Vec4) error {
	if err := writeF32(w, v.X); err != nil {
		return err
	}
	if err := writeF32(w, v.Y); err != nil {
		return err
	}
	if err := writeF32(w, v.Z); err != nil {
		return err
	}
	return writeF32(w, v.W)
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

// --- binary decoding: the budgeted, bounds-checked decoder ---

// decoder reads one command payload at a time. For framed (v2) streams
// rem holds the payload bytes still owed; every read is checked against
// it so a payload cannot read into the next command. rem < 0 disables
// framing (v1 streams). alloc accumulates materialized bytes against
// lim.AllocBudget across the whole stream.
type decoder struct {
	r     *bufio.Reader
	lim   Limits
	alloc int64
	rem   int64

	// buf is the scratch one bulk chunk is read into before it is
	// decoded; it grows to the largest chunk (64 KiB) and is reused.
	buf []byte
}

// take accounts n payload bytes about to be read.
func (d *decoder) take(n int) error {
	if d.rem < 0 {
		return nil
	}
	if int64(n) > d.rem {
		return fmt.Errorf("payload overrun: need %d bytes, %d left", n, d.rem)
	}
	d.rem -= int64(n)
	return nil
}

// charge accounts n bytes of decoder-side allocation against the
// cumulative budget.
func (d *decoder) charge(n int64) error {
	d.alloc += n
	if d.lim.AllocBudget > 0 && d.alloc > d.lim.AllocBudget {
		return fmt.Errorf("%w: %d bytes over %d",
			ErrBudget, d.alloc, d.lim.AllocBudget)
	}
	return nil
}

func (d *decoder) readU8() (uint8, error) {
	if err := d.take(1); err != nil {
		return 0, err
	}
	return d.r.ReadByte()
}

func (d *decoder) readU32() (uint32, error) {
	if err := d.take(4); err != nil {
		return 0, err
	}
	// Peek+Discard reads the word in place, where io.ReadFull into a
	// local array would move that array to the heap. Discarding bytes
	// Peek returned cannot fail.
	b, err := d.r.Peek(4)
	if err != nil {
		// Consume the partial word, as io.ReadFull would.
		_, _ = d.r.Discard(len(b))
		if len(b) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b)
	_, _ = d.r.Discard(4)
	return v, nil
}

func (d *decoder) readF32() (float32, error) {
	v, err := d.readU32()
	return math.Float32frombits(v), err
}

func (d *decoder) readVec4() (gmath.Vec4, error) {
	var v gmath.Vec4
	var err error
	if v.X, err = d.readF32(); err != nil {
		return v, err
	}
	if v.Y, err = d.readF32(); err != nil {
		return v, err
	}
	if v.Z, err = d.readF32(); err != nil {
		return v, err
	}
	v.W, err = d.readF32()
	return v, err
}

func (d *decoder) readString() (string, error) {
	n, err := d.readU32()
	if err != nil {
		return "", err
	}
	if int64(n) > int64(d.lim.MaxStringBytes) {
		return "", fmt.Errorf("string length %d: %w", n, ErrLimit)
	}
	if err := d.take(int(n)); err != nil {
		return "", err
	}
	if err := d.charge(int64(n)); err != nil {
		return "", err
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// bulk reads n payload bytes, a run of n/unit fields of unit bytes
// each, into the scratch buffer with one read. It consumes the same
// bytes and fails with the same errors as reading the fields one at a
// time with take + read: on a framing overrun it reads the whole fields
// the payload still holds and then fails take, and on a read error it
// leaves rem where the field-by-field reads would have.
func (d *decoder) bulk(n, unit int) ([]byte, error) {
	if cap(d.buf) < n {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	if d.rem >= 0 && int64(n) > d.rem {
		fit := int(d.rem) / unit * unit
		if _, err := d.bulk(fit, unit); err != nil {
			return nil, err
		}
		return nil, d.take(unit)
	}
	got, err := io.ReadFull(d.r, b)
	if err != nil {
		if d.rem >= 0 {
			d.rem -= int64(min(n, got/unit*unit+unit))
		}
		return nil, err
	}
	if d.rem >= 0 {
		d.rem -= int64(n)
	}
	return b, nil
}

// readVec4s reads n Vec4s chunk by chunk: each chunk is charged against
// the budget, read in bulk, and only then appended, so a length field
// pointing past a truncation cannot commit one giant make.
func (d *decoder) readVec4s(n int) ([]gmath.Vec4, error) {
	const chunk = 4096
	var out []gmath.Vec4
	for len(out) < n {
		c := min(n-len(out), chunk)
		if err := d.charge(int64(c) * 16); err != nil {
			return nil, err
		}
		b, err := d.bulk(c*16, 4)
		if err != nil {
			return nil, err
		}
		out = slices.Grow(out, c)
		for ; len(b) >= 16; b = b[16:] {
			out = append(out, gmath.Vec4{
				X: math.Float32frombits(binary.LittleEndian.Uint32(b)),
				Y: math.Float32frombits(binary.LittleEndian.Uint32(b[4:])),
				Z: math.Float32frombits(binary.LittleEndian.Uint32(b[8:])),
				W: math.Float32frombits(binary.LittleEndian.Uint32(b[12:])),
			})
		}
	}
	return out, nil
}

// readU32s reads n uint32s in chunks, like readVec4s.
func (d *decoder) readU32s(n int) ([]uint32, error) {
	const chunk = 16384
	var out []uint32
	for len(out) < n {
		c := min(n-len(out), chunk)
		if err := d.charge(int64(c) * 4); err != nil {
			return nil, err
		}
		b, err := d.bulk(c*4, 4)
		if err != nil {
			return nil, err
		}
		out = slices.Grow(out, c)
		for ; len(b) >= 4; b = b[4:] {
			out = append(out, binary.LittleEndian.Uint32(b))
		}
	}
	return out, nil
}

// SniffHeader validates just the stream header — magic, version and API
// dialect — and reports what it found, without committing to a decode.
// The characterization service uses it to reject a malformed upload at
// submission time, before a worker slot is spent on it; header damage
// comes back as the same *FormatError (Cmd -1) a full read would give.
func SniffHeader(r io.Reader) (api gfxapi.API, ver uint8, err error) {
	rd, err := NewReader(r)
	if err != nil {
		return 0, 0, err
	}
	return rd.API(), rd.Version(), nil
}
