package trace

import (
	"bytes"
	"fmt"
	"testing"

	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
	"gpuchar/internal/shader"
)

// TestPlayerIndexRangeMatchesScan pins the player's per-buffer index
// range against a full scan of every index of every draw: Strict
// replay fails on the same draw with the same error text, and Lenient
// replay counts the same degraded draws. The stream draws an in-range
// and an out-of-range buffer, draws one buffer with a smaller and a
// larger vertex buffer, and re-creates a buffer ID with new contents.
func TestPlayerIndexRangeMatchesScan(t *testing.T) {
	verts := func(n int) [][]gmath.Vec4 {
		return [][]gmath.Vec4{make([]gmath.Vec4, n)}
	}
	progs := []gfxapi.Command{
		{Op: gfxapi.OpCreateProgram, ID: 1, Program: shader.BasicTransformVS()},
		{Op: gfxapi.OpCreateProgram, ID: 2, Program: shader.TexturedFS()},
	}
	vb := func(id uint32, n int) gfxapi.Command {
		return gfxapi.Command{Op: gfxapi.OpCreateVB, ID: id, Stride: 16, VBData: verts(n)}
	}
	ib := func(id uint32, ix ...uint32) gfxapi.Command {
		return gfxapi.Command{Op: gfxapi.OpCreateIB, ID: id, Stride: 4, IBData: ix}
	}
	draw := func(vb, ib uint32) gfxapi.Command {
		return gfxapi.Command{Op: gfxapi.OpDraw, ID: vb, ID2: ib, ProgID: 1, ProgID2: 2}
	}
	cases := map[string][]gfxapi.Command{
		"in range": {vb(10, 3), ib(20, 0, 1, 2), draw(10, 20)},
		"out of range": {vb(10, 3), ib(20, 0, 1, 2), ib(21, 0, 5, 2, 7),
			draw(10, 20), draw(10, 21), draw(10, 21)},
		"empty buffer": {vb(10, 0), ib(20), draw(10, 20)},
		"smaller and larger vb": {vb(10, 3), vb(11, 8), vb(12, 2), ib(20, 2, 1, 0, 2),
			draw(10, 20), draw(11, 20), draw(12, 20), draw(11, 20)},
		"re-created id": {vb(10, 4), ib(20, 0, 1, 3), draw(10, 20),
			ib(20, 0, 9, 1, 9), draw(10, 20), ib(20, 3, 3, 3), draw(10, 20),
			vb(10, 10), draw(10, 20), ib(20, 0, 10), draw(10, 20)},
		"largest index": {vb(10, 3), ib(20, 0, 1, 0xFFFFFFFF), draw(10, 20)},
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			cmds := append(append([]gfxapi.Command(nil), progs...), body...)
			cmds = append(cmds, gfxapi.Command{Op: gfxapi.OpEndFrame})
			var buf bytes.Buffer
			rec, err := NewRecorder(&buf, gfxapi.OpenGL)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cmds {
				rec.Record(c)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}

			// The oracle: scan every index of every draw against the
			// vertex buffer the draw names.
			nverts := map[uint32]int{}
			indices := map[uint32][]uint32{}
			var wantErr string
			var wantDegraded int64
			off := int64(6)
			for i, c := range cmds {
				switch c.Op {
				case gfxapi.OpCreateVB:
					nverts[c.ID] = len(c.VBData[0])
				case gfxapi.OpCreateIB:
					indices[c.ID] = c.IBData
				case gfxapi.OpDraw:
					nv := nverts[c.ID]
					n := oversizedIndices(&geom.VertexBuffer{Attribs: verts(nv)},
						&geom.IndexBuffer{Indices: indices[c.ID2]})
					if n > 0 {
						wantDegraded++
						if wantErr == "" {
							wantErr = fmt.Sprintf("trace: replay command %d (op Draw) at offset %d: "+
								"draw has %d indices out of range (vb has %d vertices)", i, off, n, nv)
						}
					}
				}
				off += 5 + int64(payloadLen(t, c))
			}

			for _, mode := range []Mode{Strict, Lenient} {
				r, err := NewReader(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				p := NewPlayer(gfxapi.NewDevice(gfxapi.OpenGL, gfxapi.NullBackend{}))
				p.SetMode(mode)
				_, err = p.Play(r)
				var gotErr string
				if err != nil {
					gotErr = err.Error()
				}
				switch mode {
				case Strict:
					if gotErr != wantErr {
						t.Errorf("strict: error %q, want %q", gotErr, wantErr)
					}
				case Lenient:
					if err != nil {
						t.Errorf("lenient: %v", err)
					}
					if got := p.Report().DegradedDraws; got != wantDegraded {
						t.Errorf("lenient: %d degraded draws, want %d", got, wantDegraded)
					}
				}
			}
		})
	}
}

// payloadLen is the encoded payload size of c.
func payloadLen(t *testing.T, c gfxapi.Command) int {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, gfxapi.OpenGL)
	if err != nil {
		t.Fatal(err)
	}
	rec.Record(c)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Len() - 6 - 5
}
