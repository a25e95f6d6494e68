package gfxapi

import (
	"testing"

	"gpuchar/internal/geom"
	"gpuchar/internal/gmath"
	"gpuchar/internal/rop"
	"gpuchar/internal/shader"
	"gpuchar/internal/texture"
	"gpuchar/internal/zst"
)

// countingBackend records what reaches the backend. The device reuses
// its DrawCall, so the backend keeps a copy of each.
type countingBackend struct {
	draws  []DrawCall
	clears int
	frames int
}

func (c *countingBackend) Execute(dc *DrawCall) { c.draws = append(c.draws, *dc) }
func (c *countingBackend) Clear(ClearOp)        { c.clears++ }
func (c *countingBackend) EndFrame()            { c.frames++ }

type recordingRecorder struct{ cmds []Command }

func (r *recordingRecorder) Record(c Command) { r.cmds = append(r.cmds, c) }

func newTestDevice() (*Device, *countingBackend) {
	b := &countingBackend{}
	return NewDevice(OpenGL, b), b
}

func simpleResources(t *testing.T, d *Device) (*geom.VertexBuffer, *geom.IndexBuffer,
	*shader.Program, *shader.Program) {
	t.Helper()
	pos := []gmath.Vec4{{W: 1}, {X: 1, W: 1}, {Y: 1, W: 1}}
	vb := d.CreateVertexBuffer([][]gmath.Vec4{pos, pos, pos}, 48)
	ib := d.CreateIndexBuffer([]uint32{0, 1, 2}, 2)
	vs, err := d.CreateProgram(shader.BasicTransformVS())
	if err != nil {
		t.Fatal(err)
	}
	fs, err := d.CreateProgram(shader.TexturedFS())
	if err != nil {
		t.Fatal(err)
	}
	return vb, ib, vs, fs
}

func TestAPIString(t *testing.T) {
	if OpenGL.String() != "OpenGL" || Direct3D.String() != "Direct3D" {
		t.Error("API names wrong")
	}
}

func TestDrawCountsBatchAndIndices(t *testing.T) {
	d, b := newTestDevice()
	vb, ib, vs, fs := simpleResources(t, d)
	d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
	d.EndFrame()
	frames := d.Frames()
	if len(frames) != 1 {
		t.Fatalf("frames = %d", len(frames))
	}
	f := frames[0]
	if f.Batches != 1 || f.Indices != 3 || f.IndexBytes != 6 {
		t.Errorf("frame = %+v", f)
	}
	if f.Primitives != 1 {
		t.Errorf("primitives = %d", f.Primitives)
	}
	if len(b.draws) != 1 || b.frames != 1 {
		t.Errorf("backend saw %d draws %d frames", len(b.draws), b.frames)
	}
}

func TestStateCallCounting(t *testing.T) {
	d, _ := newTestDevice()
	base := d.CurrentFrame().StateCalls
	d.SetZState(zst.DefaultState())
	d.SetRopState(rop.AdditiveBlend())
	d.SetCull(geom.CullNone)
	d.SetConst(0, gmath.V4(1, 2, 3, 4))
	d.SetMatrix(4, gmath.Identity()) // 4 calls
	got := d.CurrentFrame().StateCalls - base
	if got != 8 {
		t.Errorf("state calls = %d, want 8", got)
	}
}

func TestResourceCreationCountsAsStateCalls(t *testing.T) {
	d, _ := newTestDevice()
	simpleResources(t, d)
	// 1 VB + 1 IB + 2 programs = 4 calls.
	if got := d.CurrentFrame().StateCalls; got != 4 {
		t.Errorf("creation state calls = %d, want 4", got)
	}
}

func TestDrawSnapshotsState(t *testing.T) {
	d, b := newTestDevice()
	vb, ib, vs, fs := simpleResources(t, d)
	st := zst.DefaultState()
	st.ZFunc = zst.CmpEqual
	d.SetZState(st)
	d.SetConst(9, gmath.V4(7, 7, 7, 7))
	d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
	// Mutating device state afterwards must not affect the captured call.
	d.SetZState(zst.DefaultState())
	d.SetConst(9, gmath.Vec4{})
	dc := b.draws[0]
	if dc.State.Z.ZFunc != zst.CmpEqual {
		t.Error("draw call state not snapshotted")
	}
	if dc.Consts[9] != gmath.V4(7, 7, 7, 7) {
		t.Error("constants not snapshotted")
	}
}

func TestWeightedShaderAverages(t *testing.T) {
	d, _ := newTestDevice()
	vb, ib, _, _ := simpleResources(t, d)
	vsShort, _ := shader.SynthesizeVS("short", 10)
	vsLong, _ := shader.SynthesizeVS("long", 30)
	fs, _ := shader.SynthesizeFS("f", 12, 4, 4)
	// Two draws with the same index count: average VS length = 20.
	d.DrawIndexed(vb, ib, geom.TriangleList, vsShort, fs)
	d.DrawIndexed(vb, ib, geom.TriangleList, vsLong, fs)
	d.EndFrame()
	f := d.Frames()[0]
	if got := f.AvgVSInstr(); got != 20 {
		t.Errorf("avg VS instr = %v, want 20", got)
	}
	if got := f.AvgFSInstr(); got != 12 {
		t.Errorf("avg FS instr = %v, want 12", got)
	}
	if got := f.AvgFSTex(); got != 4 {
		t.Errorf("avg FS tex = %v, want 4", got)
	}
}

func TestPrimitiveMixTracking(t *testing.T) {
	d, _ := newTestDevice()
	vb, ib, vs, fs := simpleResources(t, d)
	d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
	d.DrawIndexed(vb, ib, geom.TriangleStrip, vs, fs)
	d.EndFrame()
	f := d.Frames()[0]
	if f.IndicesByPrim[geom.TriangleList] != 3 ||
		f.IndicesByPrim[geom.TriangleStrip] != 3 {
		t.Errorf("mix = %v", f.IndicesByPrim)
	}
	// TL: 1 triangle; TS with 3 indices: 1 triangle.
	if f.Primitives != 2 {
		t.Errorf("primitives = %d", f.Primitives)
	}
}

func TestCreateTextureSpecs(t *testing.T) {
	d, _ := newTestDevice()
	specs := []TextureSpec{
		{Name: "c", Format: texture.FormatDXT1, W: 64, H: 64, Kind: KindChecker,
			Cell: 8, ColorA: texture.RGBA{R: 255, A: 255}, ColorB: texture.RGBA{B: 255, A: 255}},
		{Name: "n", Format: texture.FormatDXT5, W: 32, H: 32, Kind: KindNoise, Seed: 3},
		{Name: "f", Format: texture.FormatRGBA8, W: 16, H: 16, Kind: KindFlat,
			ColorA: texture.RGBA{R: 1, G: 2, B: 3, A: 4}},
	}
	var addrs []uint64
	for _, s := range specs {
		tex, err := d.CreateTexture(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if tex.BaseAddr == 0 {
			t.Errorf("%s: no address assigned", s.Name)
		}
		addrs = append(addrs, tex.BaseAddr)
	}
	// Addresses must not overlap.
	if addrs[0] == addrs[1] || addrs[1] == addrs[2] {
		t.Error("texture addresses collide")
	}
	// Bad spec surfaces the error.
	if _, err := d.CreateTexture(TextureSpec{Name: "bad", W: 100, H: 64}); err == nil {
		t.Error("non-power-of-two spec accepted")
	}
}

func TestCreateProgramValidates(t *testing.T) {
	d, _ := newTestDevice()
	bad := &shader.Program{Name: "empty", Kind: shader.FragmentProgram}
	if _, err := d.CreateProgram(bad); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestRecorderSeesCalls(t *testing.T) {
	d, _ := newTestDevice()
	r := &recordingRecorder{}
	d.SetRecorder(r)
	vb, ib, vs, fs := simpleResources(t, d)
	d.SetCull(geom.CullNone)
	d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
	d.Clear(ClearOp{ClearDepth: true, Z: 1})
	d.EndFrame()
	// 4 creations + cull + draw + clear + endframe = 8 commands.
	if len(r.cmds) != 8 {
		t.Fatalf("recorded %d commands", len(r.cmds))
	}
	wantOps := []Op{OpCreateVB, OpCreateIB, OpCreateProgram, OpCreateProgram,
		OpSetCull, OpDraw, OpClear, OpEndFrame}
	for i, w := range wantOps {
		if r.cmds[i].Op != w {
			t.Errorf("cmd %d = %v, want %v", i, r.cmds[i].Op, w)
		}
	}
	// The draw command references the created resources by id.
	draw := r.cmds[5]
	if draw.ID == 0 || draw.ID2 == 0 || draw.ProgID == 0 || draw.ProgID2 == 0 {
		t.Errorf("draw ids = %+v", draw)
	}
}

func TestBindTextureOutOfRangeIgnored(t *testing.T) {
	d, _ := newTestDevice()
	before := d.CurrentFrame().StateCalls
	d.BindTexture(-1, nil, texture.SamplerState{})
	d.BindTexture(99, nil, texture.SamplerState{})
	if d.CurrentFrame().StateCalls != before {
		t.Error("out-of-range binds counted")
	}
}

func TestSetConstOutOfRangeIgnored(t *testing.T) {
	d, _ := newTestDevice()
	before := d.CurrentFrame().StateCalls
	d.SetConst(-1, gmath.Vec4{})
	d.SetConst(shader.NumConsts, gmath.Vec4{})
	if d.CurrentFrame().StateCalls != before {
		t.Error("out-of-range consts counted")
	}
}

func TestFrameStatsResetPerFrame(t *testing.T) {
	d, _ := newTestDevice()
	vb, ib, vs, fs := simpleResources(t, d)
	d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
	d.EndFrame()
	d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
	d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
	d.EndFrame()
	fs1, fs2 := d.Frames()[0], d.Frames()[1]
	if fs1.Batches != 1 || fs2.Batches != 2 {
		t.Errorf("batches = %d, %d", fs1.Batches, fs2.Batches)
	}
}

func TestEmptyFrameAverages(t *testing.T) {
	var f FrameStats
	if f.AvgVSInstr() != 0 || f.AvgFSInstr() != 0 || f.AvgFSTex() != 0 {
		t.Error("empty frame averages should be 0")
	}
}

func TestOpString(t *testing.T) {
	if OpDraw.String() != "Draw" || OpEndFrame.String() != "EndFrame" {
		t.Error("op names wrong")
	}
	if Op(200).String() != "Op?" {
		t.Error("unknown op name")
	}
}

// TestDrawIndexedAllocFree pins the unrecorded API command path as
// allocation-free: a draw fills the device's own DrawCall, and a state
// call builds its Command only when a recorder is attached.
func TestDrawIndexedAllocFree(t *testing.T) {
	d := NewDevice(OpenGL, NullBackend{})
	vb, ib, vs, fs := simpleResources(t, d)
	tex, err := d.CreateTexture(TextureSpec{Name: "t", Format: texture.FormatRGBA8, W: 4, H: 4, Kind: KindFlat})
	if err != nil {
		t.Fatal(err)
	}
	d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs) // warm
	if n := testing.AllocsPerRun(100, func() {
		d.DrawIndexed(vb, ib, geom.TriangleList, vs, fs)
	}); n != 0 {
		t.Errorf("DrawIndexed: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		d.SetZState(zst.DefaultState())
		d.SetRopState(rop.AlphaBlend())
		d.SetCull(geom.CullNone)
		d.BindTexture(0, tex, texture.SamplerState{Filter: texture.FilterBilinear})
		d.SetConst(3, gmath.V4(1, 2, 3, 4))
		d.Clear(ClearOp{ClearColor: true})
	}); n != 0 {
		t.Errorf("state calls: %v allocs/op, want 0", n)
	}
}
