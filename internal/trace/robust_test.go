package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"gpuchar/internal/gfxapi"
)

// goldenTrace records the small representative scene and returns the
// encoded stream.
func goldenTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, gfxapi.OpenGL)
	if err != nil {
		t.Fatal(err)
	}
	d := gfxapi.NewDevice(gfxapi.OpenGL, gfxapi.NullBackend{})
	d.SetRecorder(rec)
	renderSmallScene(t, d)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzLimits are deliberately tight so the corruption suites exercise
// the allocation budget, not the machine's patience.
func fuzzLimits() Limits {
	lim := DefaultLimits()
	lim.AllocBudget = 1 << 20
	return lim
}

// allocSlack is how far past the budget the Allocated counter may land:
// the decoder charges one chunk before reading it, so the counter can
// overshoot by at most one chunk charge (4096 Vec4s = 64 KiB). The
// over-charged chunk is never retained.
const allocSlack = 1 << 17

// playCorrupt decodes and strictly replays data, requiring that every
// failure is a typed trace error and allocation stays within budget.
func playCorrupt(t *testing.T, data []byte, lim Limits) {
	t.Helper()
	r, err := NewReaderLimits(bytes.NewReader(data), lim)
	if err != nil {
		return // header damage: rejected before any command decodes
	}
	dev := gfxapi.NewDevice(r.API(), gfxapi.NullBackend{})
	_, err = NewPlayer(dev).Play(r)
	if err != nil {
		var fe *FormatError
		var re *ReplayError
		if !errors.As(err, &fe) && !errors.As(err, &re) {
			t.Fatalf("untyped error %T: %v", err, err)
		}
	}
	if got := r.Allocated(); got > lim.AllocBudget+allocSlack {
		t.Fatalf("allocated %d bytes, budget %d", got, lim.AllocBudget)
	}
}

// TestBitFlipNoPanic flips every bit of a golden trace, one at a time,
// and replays each corrupted stream: no input may panic, allocate past
// the budget, or fail with an untyped error.
func TestBitFlipNoPanic(t *testing.T) {
	golden := goldenTrace(t)
	lim := fuzzLimits()
	data := make([]byte, len(golden))
	for i := range golden {
		for bit := 0; bit < 8; bit++ {
			copy(data, golden)
			data[i] ^= 1 << bit
			playCorrupt(t, data, lim)
			if t.Failed() {
				t.Fatalf("at byte %d bit %d", i, bit)
			}
		}
	}
}

// TestTruncationNoPanic cuts a golden trace at every byte offset: the
// reader must fail with a typed error (or replay the surviving prefix
// cleanly) without panicking or blowing the budget.
func TestTruncationNoPanic(t *testing.T) {
	golden := goldenTrace(t)
	lim := fuzzLimits()
	for i := 0; i <= len(golden); i++ {
		playCorrupt(t, golden[:i], lim)
		if t.Failed() {
			t.Fatalf("at cut offset %d", i)
		}
	}
}

// frame encodes one v2 framed command.
func frame(op uint8, payload []byte) []byte {
	out := []byte{op}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(payload)))
	out = append(out, n[:]...)
	return append(out, payload...)
}

func u32le(v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return b[:]
}

// header is a v2 OpenGL trace header.
func header() []byte { return []byte{'G', 'T', 'R', 'C', 2, 0} }

// TestHeaderDamageIsTyped checks that every way a header can be bad —
// truncation, wrong magic, future version, unknown dialect — rejects
// with a *FormatError marked as header damage (Cmd -1).
func TestHeaderDamageIsTyped(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"short":           {'G', 'T', 'R'},
		"magic":           {'X', 'T', 'R', 'C', 2, 0},
		"future version":  {'G', 'T', 'R', 'C', 99, 0},
		"version zero":    {'G', 'T', 'R', 'C', 0, 0},
		"unknown dialect": {'G', 'T', 'R', 'C', 2, 99},
	}
	for name, data := range cases {
		_, err := NewReader(bytes.NewReader(data))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s header: err = %v (%T), want *FormatError", name, err, err)
			continue
		}
		if fe.Cmd >= 0 {
			t.Errorf("%s header: Cmd = %d, want negative (header damage)", name, fe.Cmd)
		}
	}
}

// TestHostileLengthsBounded replays the motivating attack: a tiny file
// whose length fields demand gigabytes. The decoder must fail on
// truncation or budget without materializing the claim.
func TestHostileLengthsBounded(t *testing.T) {
	// CreateVB claiming 2^24 vertices in 16 payload bytes.
	payload := append(append(append(
		u32le(1),      // ID
		u32le(48)...), // stride
		u32le(1)...), // nAttr
		u32le(1<<24)...) // vertices — none follow
	data := append(header(), frame(uint8(gfxapi.OpCreateVB), payload)...)

	lim := fuzzLimits()
	r, err := NewReaderLimits(bytes.NewReader(data), lim)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("hostile CreateVB: err = %v, want *FormatError", err)
	}
	if got := r.Allocated(); got > lim.AllocBudget+allocSlack {
		t.Fatalf("allocated %d for a %d-byte file", got, len(data))
	}
}

// TestAllocationBudgetEnforced streams valid oversized commands until
// the cumulative budget trips: the decoder must surface ErrBudget.
func TestAllocationBudgetEnforced(t *testing.T) {
	var buf bytes.Buffer
	rec, _ := NewRecorder(&buf, gfxapi.OpenGL)
	idx := make([]uint32, 1<<16)
	for i := 0; i < 8; i++ {
		rec.Record(gfxapi.Command{Op: gfxapi.OpCreateIB, ID: uint32(i),
			IBData: idx, Stride: 4})
	}
	rec.Close()

	lim := DefaultLimits()
	lim.AllocBudget = 1 << 19 // half a MiB; the stream claims 2 MiB
	r, err := NewReaderLimits(bytes.NewReader(buf.Bytes()), lim)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = r.Next()
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

// spliceAfterHeader inserts raw bytes at the first command boundary.
func spliceAfterHeader(trace, inject []byte) []byte {
	out := append([]byte{}, trace[:6]...)
	out = append(out, inject...)
	return append(out, trace[6:]...)
}

// lenientTestTrace builds a trace containing, in order: an unknown op,
// a valid frame, a draw with dangling resource IDs, and a draw whose
// index buffer references vertices past the end of its vertex buffer.
func lenientTestTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, gfxapi.OpenGL)
	if err != nil {
		t.Fatal(err)
	}
	d := gfxapi.NewDevice(gfxapi.OpenGL, gfxapi.NullBackend{})
	d.SetRecorder(rec)
	renderSmallScene(t, d) // 2 clean frames of state + draws
	// Dangling draw: none of these IDs exist.
	rec.Record(gfxapi.Command{Op: gfxapi.OpDraw, ID: 99, ID2: 98,
		ProgID: 97, ProgID2: 96})
	rec.Close()

	data := buf.Bytes()
	// Oversized draw: re-create IB 2 with an out-of-range index, then
	// draw with it. The resource IDs the device assigned in
	// renderSmallScene are 1 (VB), 2 (IB), 3-4 (programs).
	var tail bytes.Buffer
	rec2, _ := NewRecorder(&tail, gfxapi.OpenGL)
	rec2.Record(gfxapi.Command{Op: gfxapi.OpCreateIB, ID: 2,
		IBData: []uint32{0, 1, 40}, Stride: 2})
	rec2.Record(gfxapi.Command{Op: gfxapi.OpDraw, ID: 1, ID2: 2,
		ProgID: 3, ProgID2: 4})
	rec2.Record(gfxapi.Command{Op: gfxapi.OpEndFrame})
	rec2.Close()
	data = append(data, tail.Bytes()[6:]...) // strip tail's header

	// Unknown op 200 with a 3-byte payload, spliced before everything.
	return spliceAfterHeader(data, frame(200, []byte{1, 2, 3}))
}

// TestLenientReplayReport replays the damaged trace leniently and
// checks the report counts every casualty exactly once while the frame
// count matches the undamaged portions.
func TestLenientReplayReport(t *testing.T) {
	data := lenientTestTrace(t)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	dev := gfxapi.NewDevice(gfxapi.OpenGL, gfxapi.NullBackend{})
	p := NewPlayer(dev)
	p.SetMode(Lenient)
	frames, err := p.Play(r)
	if err != nil {
		t.Fatalf("lenient replay aborted: %v", err)
	}
	if frames != 3 {
		t.Errorf("frames = %d, want 3 (2 clean + 1 degraded)", frames)
	}
	rep := p.Report()
	if rep.SkippedUnknownOps != 1 {
		t.Errorf("SkippedUnknownOps = %d, want 1", rep.SkippedUnknownOps)
	}
	if rep.SkippedBadCommands != 1 {
		t.Errorf("SkippedBadCommands = %d, want 1 (the dangling draw)",
			rep.SkippedBadCommands)
	}
	if rep.DanglingResources != 1 {
		t.Errorf("DanglingResources = %d, want 1", rep.DanglingResources)
	}
	if rep.DegradedDraws != 1 {
		t.Errorf("DegradedDraws = %d, want 1", rep.DegradedDraws)
	}
	if rep.Clean() {
		t.Error("report claims clean")
	}
	if len(rep.Errs) == 0 {
		t.Error("report retained no errors")
	}
}

// TestStrictReplayAbortsOnUnknownOp pins the strict default: the same
// damaged trace fails on the first bad command with a resynced
// *FormatError wrapping ErrUnknownOp.
func TestStrictReplayAbortsOnUnknownOp(t *testing.T) {
	data := lenientTestTrace(t)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	dev := gfxapi.NewDevice(gfxapi.OpenGL, gfxapi.NullBackend{})
	frames, err := NewPlayer(dev).Play(r)
	if frames != 0 {
		t.Errorf("frames = %d before abort, want 0", frames)
	}
	if !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v, want ErrUnknownOp", err)
	}
	var fe *FormatError
	if !errors.As(err, &fe) || !fe.Resynced() {
		t.Fatalf("err = %#v, want resynced *FormatError", err)
	}
	if fe.Cmd != 0 || fe.Offset != 6 {
		t.Errorf("error position = cmd %d offset %d, want cmd 0 offset 6",
			fe.Cmd, fe.Offset)
	}
}

// TestV1ReadCompat checks version negotiation: a v1 (unframed) stream
// still decodes, and its unknown ops are terminal rather than resynced.
func TestV1ReadCompat(t *testing.T) {
	// Hand-encode a v1 stream: header + SetConst + EndFrame + unknown.
	data := []byte{'G', 'T', 'R', 'C', 1, 0}
	data = append(data, uint8(gfxapi.OpSetConst))
	data = append(data, 2) // unit
	for i := 0; i < 4; i++ {
		data = append(data, u32le(0)...)
	}
	data = append(data, uint8(gfxapi.OpEndFrame))
	data = append(data, 250) // unknown op, no framing to resync with

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 1 {
		t.Fatalf("version = %d", r.Version())
	}
	if cmd, err := r.Next(); err != nil || cmd.Op != gfxapi.OpSetConst {
		t.Fatalf("cmd 0: %v %v", cmd.Op, err)
	}
	if cmd, err := r.Next(); err != nil || cmd.Op != gfxapi.OpEndFrame {
		t.Fatalf("cmd 1: %v %v", cmd.Op, err)
	}
	_, err = r.Next()
	var fe *FormatError
	if !errors.As(err, &fe) || !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("unknown v1 op: err = %v", err)
	}
	if fe.Resynced() {
		t.Error("v1 unknown op claims resynced: nothing frames the skip")
	}
}

// TestReaderOffsetsAreExact replays a trace while checking that Offset
// advances monotonically and errors carry real stream positions.
func TestReaderOffsetsAreExact(t *testing.T) {
	golden := goldenTrace(t)
	r, err := NewReader(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	last := r.Offset()
	if last != 6 {
		t.Fatalf("post-header offset = %d, want 6", last)
	}
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if off := r.Offset(); off <= last {
			t.Fatalf("offset went from %d to %d", last, off)
		} else {
			last = off
		}
	}
	if last != int64(len(golden)) {
		t.Errorf("final offset %d, trace is %d bytes", last, len(golden))
	}
}
