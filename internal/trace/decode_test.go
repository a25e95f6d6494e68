package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
	"gpuchar/internal/texture"
	"gpuchar/internal/workloads"
)

// recordDemo records frames of a workload at API level into a v2 trace.
func recordDemo(tb testing.TB, prof *workloads.Profile, frames int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, prof.API)
	if err != nil {
		tb.Fatal(err)
	}
	dev := gfxapi.NewDevice(prof.API, gfxapi.NullBackend{})
	dev.SetRecorder(rec)
	if err := workloads.New(prof, dev, 256, 192).Run(frames); err != nil {
		tb.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// toV1 rewrites a v2 trace as the unframed v1 format: the same commands
// back to back, without their payload lengths.
func toV1(tb testing.TB, v2 []byte) []byte {
	tb.Helper()
	out := append([]byte(nil), v2[:6]...)
	out[4] = 1
	for p := v2[6:]; len(p) > 0; {
		if len(p) < 5 {
			tb.Fatal("malformed v2 trace")
		}
		n := int(binary.LittleEndian.Uint32(p[1:5]))
		out = append(out, p[0])
		out = append(out, p[5:5+n]...)
		p = p[5+n:]
	}
	return out
}

// corpusSeeds returns every input checked into the decoder's fuzz
// corpora.
func corpusSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no fuzz corpus: %v", err)
	}
	var seeds [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			tb.Fatalf("%s: not a one-value corpus file", f)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// chunkTrace is a v2 trace whose buffers span several bulk chunks: a
// vertex buffer of 5000 Vec4s per attribute (chunks of 4096), an index
// buffer of 20000 indices (chunks of 16384) and a data texture of 5000
// texels (chunks of 4096).
func chunkTrace(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, gfxapi.OpenGL)
	if err != nil {
		tb.Fatal(err)
	}
	vs := make([]gmath.Vec4, 5000)
	for i := range vs {
		vs[i] = gmath.V4(float32(i), -float32(i), 0.5, 1)
	}
	ix := make([]uint32, 20000)
	for i := range ix {
		ix[i] = uint32(i*7) % 5000
	}
	tex := gfxapi.TextureSpec{Name: "data", W: 100, H: 50, Kind: gfxapi.KindData}
	for i := 0; i < 5000; i++ {
		tex.Data = append(tex.Data, texture.RGBA{R: uint8(i), A: uint8(i >> 8)})
	}
	rec.Record(gfxapi.Command{Op: gfxapi.OpCreateVB, ID: 1, Stride: 32, VBData: [][]gmath.Vec4{vs, vs}})
	rec.Record(gfxapi.Command{Op: gfxapi.OpCreateIB, ID: 2, Stride: 4, IBData: ix})
	rec.Record(gfxapi.Command{Op: gfxapi.OpCreateTex, ID: 3, TexSpec: tex})
	rec.Record(gfxapi.Command{Op: gfxapi.OpEndFrame})
	if err := rec.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// shortFrame returns data with the payload length of its command at
// off lowered by d bytes, so the payload overruns its frame d bytes
// before it ends.
func shortFrame(data []byte, off, d int) []byte {
	out := append([]byte(nil), data...)
	n := binary.LittleEndian.Uint32(out[off+1:])
	binary.LittleEndian.PutUint32(out[off+1:], n-uint32(d))
	return out
}

// frameOffsets returns the byte offset of every command of a v2 trace.
func frameOffsets(data []byte) []int {
	var offs []int
	for p := 6; p+5 <= len(data); p += 5 + int(binary.LittleEndian.Uint32(data[p+1:])) {
		offs = append(offs, p)
	}
	return offs
}

// sameBits is reflect.DeepEqual with floats compared by bit pattern, so
// a NaN decoded from a corrupt payload equals the same NaN.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	default: // func, map, chan: no decoded command sets one
		return a.IsNil() && b.IsNil()
	}
}

// errClasses are the sentinels a caller may match a decode error with.
var errClasses = []error{ErrBudget, ErrLimit, ErrUnknownOp, io.ErrUnexpectedEOF, io.EOF}

// describeErr renders everything a caller can observe of a decode error.
func describeErr(err error) string {
	if err == nil {
		return "<nil>"
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		return fmt.Sprintf("%T %q", err, err)
	}
	var class []string
	for _, c := range errClasses {
		if errors.Is(err, c) {
			class = append(class, c.Error())
		}
	}
	return fmt.Sprintf("FormatError{Cmd:%d Offset:%d Op:%d Resynced:%v Is:%v} %q",
		fe.Cmd, fe.Offset, fe.Op, fe.Resynced(), class, err)
}

// decodeMatchesReference decodes data with the bulk decoder and the
// reference one and reports the first difference: in the command, the
// error, or the reader's offset, allocation and command counters.
func decodeMatchesReference(data []byte, lim Limits) error {
	got, gerr := NewReaderLimits(bytes.NewReader(data), lim)
	want, werr := newRefReader(bytes.NewReader(data), lim)
	if g, w := describeErr(gerr), describeErr(werr); g != w {
		return fmt.Errorf("header: got %s, want %s", g, w)
	}
	if werr != nil {
		return nil
	}
	for i := 0; ; i++ {
		gc, gerr := got.Next()
		wc, werr := want.Next()
		if g, w := describeErr(gerr), describeErr(werr); g != w {
			return fmt.Errorf("command %d: error %s, want %s", i, g, w)
		}
		if !sameBits(reflect.ValueOf(gc), reflect.ValueOf(wc)) {
			return fmt.Errorf("command %d (op %s): decoded %+v, want %+v", i, wc.Op, gc, wc)
		}
		if g, w := got.Offset(), want.Offset(); g != w {
			return fmt.Errorf("command %d: offset %d, want %d", i, g, w)
		}
		if g, w := got.Allocated(), want.Allocated(); g != w {
			return fmt.Errorf("command %d: allocated %d, want %d", i, g, w)
		}
		if g, w := got.Commands(), want.Commands(); g != w {
			return fmt.Errorf("command %d: commands %d, want %d", i, g, w)
		}
		var fe *FormatError
		if werr == io.EOF || (werr != nil && !(errors.As(werr, &fe) && fe.Resynced())) {
			return nil
		}
	}
}

func checkMatchesReference(t *testing.T, name string, data []byte, lim Limits) {
	t.Helper()
	if err := decodeMatchesReference(data, lim); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestDecodeMatchesReference pins the bulk decoder to the field-at-a-time
// reference decoder on every recorded demo (v2, render-to-texture ops
// included), a v1 stream, the fuzz corpora, buffers spanning several
// chunks, and every truncation and bit flip of a small trace.
func TestDecodeMatchesReference(t *testing.T) {
	tight := DefaultLimits()
	tight.AllocBudget = 64 << 10
	// One frame of every registered demo: the paper's twelve and the
	// render-to-texture families.
	for _, p := range workloads.All() {
		data := recordDemo(t, &p, 1)
		checkMatchesReference(t, p.Name, data, DefaultLimits())
		checkMatchesReference(t, p.Name+" (64 KiB budget)", data, tight)
	}
	small := goldenTrace(t)
	checkMatchesReference(t, "v1", toV1(t, small), DefaultLimits())
	for i, seed := range corpusSeeds(t) {
		checkMatchesReference(t, fmt.Sprintf("corpus %d", i), seed, fuzzLimits())
	}

	// Chunk boundaries: lying frame lengths, truncations and budgets
	// that land inside and between chunks.
	big := chunkTrace(t)
	checkMatchesReference(t, "chunked", big, DefaultLimits())
	checkMatchesReference(t, "chunked v1", toV1(t, big), DefaultLimits())
	for _, off := range frameOffsets(big) {
		for _, d := range []int{1, 2, 3, 4, 5, 17, 4096*16 + 3} {
			n := int(binary.LittleEndian.Uint32(big[off+1:]))
			if d <= n {
				checkMatchesReference(t, fmt.Sprintf("frame at %d short by %d", off, d),
					shortFrame(big, off, d), DefaultLimits())
			}
		}
	}
	for cut := 0; cut < len(big); cut += 4093 {
		checkMatchesReference(t, fmt.Sprintf("chunked cut at %d", cut), big[:cut], DefaultLimits())
	}
	for _, budget := range []int64{1, 4096*16 - 1, 4096 * 16, 4096*16*2 + 5, 200 << 10} {
		lim := DefaultLimits()
		lim.AllocBudget = budget
		checkMatchesReference(t, fmt.Sprintf("chunked budget %d", budget), big, lim)
		checkMatchesReference(t, fmt.Sprintf("chunked v1 budget %d", budget), toV1(t, big), lim)
	}

	// Every truncation and every bit flip of a small v2 and v1 trace.
	for _, v := range []struct {
		name string
		data []byte
	}{{"v2", small}, {"v1", toV1(t, small)}} {
		for cut := 0; cut <= len(v.data); cut++ {
			checkMatchesReference(t, fmt.Sprintf("%s cut at %d", v.name, cut), v.data[:cut], fuzzLimits())
		}
		flipped := make([]byte, len(v.data))
		for i := range v.data {
			for bit := 0; bit < 8; bit++ {
				copy(flipped, v.data)
				flipped[i] ^= 1 << bit
				checkMatchesReference(t, fmt.Sprintf("%s byte %d bit %d", v.name, i, bit), flipped, fuzzLimits())
			}
		}
	}
}

// FuzzDecodeMatchesReference feeds arbitrary bytes to both decoders.
func FuzzDecodeMatchesReference(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Add(chunkTrace(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		lim := DefaultLimits()
		lim.AllocBudget = 1 << 22
		if err := decodeMatchesReference(data, lim); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeDrawAllocFree pins the per-draw decode path as
// allocation-free: a warmed reader decodes Draw and SetConst commands
// without touching the heap.
func TestDecodeDrawAllocFree(t *testing.T) {
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, gfxapi.OpenGL)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 100
	for i := 0; i < runs+2; i++ {
		rec.Record(gfxapi.Command{Op: gfxapi.OpSetConst, Unit: 4, Vec: gmath.V4(1, 2, 3, float32(i))})
		rec.Record(gfxapi.Command{Op: gfxapi.OpDraw, ID: 1, ID2: 2, ProgID: 3, ProgID2: 4, Prim: geom.TriangleStrip})
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var last gfxapi.Command
	allocs := testing.AllocsPerRun(runs, func() {
		for _, op := range []gfxapi.Op{gfxapi.OpSetConst, gfxapi.OpDraw} {
			c, err := r.Next()
			if err != nil || c.Op != op {
				panic(fmt.Sprintf("decoded %v, %v; want op %v", c.Op, err, op))
			}
			last = c
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per SetConst+Draw, want 0", allocs)
	}
	if last.ID2 != 2 || last.ProgID2 != 4 || last.Prim != geom.TriangleStrip {
		t.Errorf("last draw decoded as %+v", last)
	}
}

// BenchmarkDecode replays a recorded Doom3 trace into a null-backend
// device: decode plus API-level replay, the work of a daemon replay job.
func BenchmarkDecode(b *testing.B) {
	data := recordDemo(b, workloads.ByName("Doom3/trdemo2"), 3)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewPlayer(gfxapi.NewDevice(r.API(), gfxapi.NullBackend{})).Play(r); err != nil {
			b.Fatal(err)
		}
	}
}
