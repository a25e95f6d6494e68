// Package gfxapi provides the abstract graphics device the workloads
// render through — the equivalent of the OpenGL / Direct3D boundary the
// paper instruments with GLInterceptor and PIX (§II.B). Every method
// call is an "API call": draw calls are batches, everything else is a
// state call, and the per-frame counts of both are the raw material of
// the paper's CPU-load analysis (Figures 1-3, Table III).
//
// The device validates calls, keeps the current render state, counts
// API activity per frame, optionally records the call stream for the
// trace package, and forwards complete draw calls to a Backend (the GPU
// simulator, or a null backend for API-level-only profiling).
package gfxapi

import (
	"fmt"

	"gpuchar/internal/geom"
	"gpuchar/internal/gmath"
	"gpuchar/internal/metrics"
	"gpuchar/internal/rop"
	"gpuchar/internal/shader"
	"gpuchar/internal/texture"
	"gpuchar/internal/zst"
)

// API identifies the dialect a workload uses, as listed in Table I.
type API uint8

// Graphics APIs.
const (
	OpenGL API = iota
	Direct3D
)

// String names the API.
func (a API) String() string {
	if a == OpenGL {
		return "OpenGL"
	}
	return "Direct3D"
}

// TexBinding couples a texture handle with its sampler state.
type TexBinding struct {
	Tex   *texture.Texture
	State texture.SamplerState
}

// RenderState is the full fixed-function state vector snapshotted into
// each draw call.
type RenderState struct {
	Z    zst.State
	Rop  rop.State
	Cull geom.CullMode
	Tex  [shader.NumTexUnits]TexBinding
}

// DrawCall is one batch: a complete, self-contained unit of GPU work.
type DrawCall struct {
	VB    *geom.VertexBuffer
	IB    *geom.IndexBuffer
	Prim  geom.PrimitiveType
	VS    *shader.Program
	FS    *shader.Program
	State RenderState
	// Consts is the constant register file at draw time (shared
	// between the vertex and fragment programs, like ATTILA's unified
	// shader model).
	Consts [shader.NumConsts]gmath.Vec4
}

// ClearOp describes a framebuffer clear.
type ClearOp struct {
	Color        gmath.Vec4
	Z            float32
	Stencil      uint8
	ClearColor   bool
	ClearDepth   bool
	ClearStencil bool
}

// Backend consumes finished draw calls: the GPU simulator, or NullBackend
// when only API-level statistics are wanted.
type Backend interface {
	// Execute consumes one draw. dc is owned by the device and valid
	// only during the call: the device refills the same DrawCall for
	// its next draw, so a backend copies whatever it keeps (state,
	// constants, bindings) before returning.
	Execute(dc *DrawCall)
	Clear(op ClearOp)
	EndFrame()
}

// NullBackend discards all work; the Device still gathers API statistics.
type NullBackend struct{}

// Execute discards the draw call.
func (NullBackend) Execute(*DrawCall) {}

// Clear discards the clear.
func (NullBackend) Clear(ClearOp) {}

// EndFrame does nothing.
func (NullBackend) EndFrame() {}

// FrameStats is the per-frame API activity record.
type FrameStats struct {
	Batches    int64
	Indices    int64
	IndexBytes int64
	StateCalls int64
	// Primitives counted by assembly arithmetic (Table V).
	Primitives int64
	// Per-primitive-type index counts, for the Table V mix.
	IndicesByPrim [3]int64
	// Instruction-weighted sums for Tables IV and XII: each draw adds
	// program length x indices.
	VSInstrWeighted float64
	FSInstrWeighted float64
	FSTexWeighted   float64
	WeightVertices  float64 // total weight (indices)
}

// Register binds every counter of f into the registry under prefix —
// the single definition of the API-level counter names. The
// instruction-weighted sums are float-valued and register as gauges.
func (f *FrameStats) Register(r *metrics.Registry, prefix string) {
	r.Bind(prefix+"/batches", &f.Batches)
	r.Bind(prefix+"/indices", &f.Indices)
	r.Bind(prefix+"/index_bytes", &f.IndexBytes)
	r.Bind(prefix+"/state_calls", &f.StateCalls)
	r.Bind(prefix+"/primitives", &f.Primitives)
	r.Bind(prefix+"/indices_list", &f.IndicesByPrim[0])
	r.Bind(prefix+"/indices_strip", &f.IndicesByPrim[1])
	r.Bind(prefix+"/indices_fan", &f.IndicesByPrim[2])
	r.BindFloat(prefix+"/vs_instr_weighted", &f.VSInstrWeighted)
	r.BindFloat(prefix+"/fs_instr_weighted", &f.FSInstrWeighted)
	r.BindFloat(prefix+"/fs_tex_weighted", &f.FSTexWeighted)
	r.BindFloat(prefix+"/weight_vertices", &f.WeightVertices)
}

// AvgVSInstr returns the index-weighted average vertex program length.
func (f FrameStats) AvgVSInstr() float64 {
	if f.WeightVertices == 0 {
		return 0
	}
	return f.VSInstrWeighted / f.WeightVertices
}

// AvgFSInstr returns the index-weighted average fragment program length.
func (f FrameStats) AvgFSInstr() float64 {
	if f.WeightVertices == 0 {
		return 0
	}
	return f.FSInstrWeighted / f.WeightVertices
}

// AvgFSTex returns the index-weighted average texture instruction count.
func (f FrameStats) AvgFSTex() float64 {
	if f.WeightVertices == 0 {
		return 0
	}
	return f.FSTexWeighted / f.WeightVertices
}

// Recorder receives every API call for tracing. Implemented by
// trace.Recorder; nil disables recording.
type Recorder interface {
	Record(cmd Command)
}

// Device is the graphics device front-end.
type Device struct {
	api      API
	backend  Backend
	recorder Recorder

	state  RenderState
	consts [shader.NumConsts]gmath.Vec4

	// dc is the draw call handed to the backend, refilled by every
	// DrawIndexed (see Backend.Execute for its lifetime).
	dc DrawCall

	frame  FrameStats
	frames []FrameStats

	// curRT is the bound render target (nil = backbuffer).
	curRT *RenderTarget

	// resource registries, for traces and bookkeeping
	nextID   uint32
	vbs      map[uint32]*geom.VertexBuffer
	ibs      map[uint32]*geom.IndexBuffer
	texs     map[uint32]*texture.Texture
	programs map[uint32]*shader.Program
	rts      map[uint32]*RenderTarget
	ids      map[interface{}]uint32

	// nextAddr allocates GPU virtual addresses for resources.
	nextAddr uint64
}

// NewDevice creates a device speaking the given API dialect into a
// backend. backend must not be nil (use NullBackend{}).
func NewDevice(api API, backend Backend) *Device {
	return &Device{
		api:      api,
		backend:  backend,
		state:    DefaultRenderState(),
		vbs:      map[uint32]*geom.VertexBuffer{},
		ibs:      map[uint32]*geom.IndexBuffer{},
		texs:     map[uint32]*texture.Texture{},
		programs: map[uint32]*shader.Program{},
		rts:      map[uint32]*RenderTarget{},
		ids:      map[interface{}]uint32{},
		nextAddr: 0x1000_0000,
	}
}

// DefaultRenderState returns the state a fresh context starts with.
func DefaultRenderState() RenderState {
	return RenderState{
		Z:    zst.DefaultState(),
		Rop:  rop.DefaultState(),
		Cull: geom.CullBack,
	}
}

// SetRecorder attaches (or detaches, with nil) a call-stream recorder.
func (d *Device) SetRecorder(r Recorder) { d.recorder = r }

// API returns the device dialect.
func (d *Device) API() API { return d.api }

// Frames returns the completed per-frame statistics.
func (d *Device) Frames() []FrameStats { return d.frames }

// CurrentFrame returns the in-progress frame statistics.
func (d *Device) CurrentFrame() FrameStats { return d.frame }

func (d *Device) alloc(n int) uint64 {
	a := d.nextAddr
	// Keep 256-byte alignment like a real allocator.
	d.nextAddr += (uint64(n) + 255) &^ 255
	return a
}

func (d *Device) assignID(res interface{}) uint32 {
	d.nextID++
	d.ids[res] = d.nextID
	return d.nextID
}

// CreateVertexBuffer registers vertex data with the device. Creation is
// a state call (it happens during level loads, producing the startup
// spikes of Figure 3).
func (d *Device) CreateVertexBuffer(attribs [][]gmath.Vec4, strideBytes int) *geom.VertexBuffer {
	vb := &geom.VertexBuffer{Attribs: attribs, StrideBytes: strideBytes}
	vb.BaseAddr = d.alloc(vb.NumVertices() * strideBytes)
	id := d.assignID(vb)
	d.vbs[id] = vb
	d.frame.StateCalls++
	if d.recorder != nil {
		d.recorder.Record(Command{Op: OpCreateVB, ID: id, VBData: attribs, Stride: strideBytes})
	}
	return vb
}

// CreateIndexBuffer registers an index list. bytesPerIndex is 2 or 4
// (Table III shows it is fixed per middleware).
func (d *Device) CreateIndexBuffer(indices []uint32, bytesPerIndex int) *geom.IndexBuffer {
	ib := &geom.IndexBuffer{Indices: indices, BytesPerIndex: bytesPerIndex}
	ib.BaseAddr = d.alloc(len(indices) * bytesPerIndex)
	id := d.assignID(ib)
	d.ibs[id] = ib
	d.frame.StateCalls++
	if d.recorder != nil {
		d.recorder.Record(Command{Op: OpCreateIB, ID: id, IBData: indices, Stride: bytesPerIndex})
	}
	return ib
}

// CreateTexture materializes a texture from a spec and places it in GPU
// memory.
func (d *Device) CreateTexture(spec TextureSpec) (*texture.Texture, error) {
	t, err := spec.Build()
	if err != nil {
		return nil, err
	}
	t.BaseAddr = d.alloc(t.TotalBytes())
	id := d.assignID(t)
	d.texs[id] = t
	d.frame.StateCalls++
	if d.recorder != nil {
		d.recorder.Record(Command{Op: OpCreateTex, ID: id, TexSpec: spec})
	}
	return t, nil
}

// CreateProgram validates and registers a shader program.
func (d *Device) CreateProgram(p *shader.Program) (*shader.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("gfxapi: %w", err)
	}
	id := d.assignID(p)
	d.programs[id] = p
	d.frame.StateCalls++
	if d.recorder != nil {
		d.recorder.Record(Command{Op: OpCreateProgram, ID: id, Program: p})
	}
	return p, nil
}

// SetZState sets the depth/stencil state (one state call).
func (d *Device) SetZState(s zst.State) {
	d.state.Z = s
	if d.stateCall() {
		st := s
		d.recorder.Record(Command{Op: OpSetZState, ZState: &st})
	}
}

// SetRopState sets the blend/mask state (one state call).
func (d *Device) SetRopState(s rop.State) {
	d.state.Rop = s
	if d.stateCall() {
		st := s
		d.recorder.Record(Command{Op: OpSetRopState, RopState: &st})
	}
}

// SetCull sets the face culling mode (one state call).
func (d *Device) SetCull(c geom.CullMode) {
	d.state.Cull = c
	if d.stateCall() {
		d.recorder.Record(Command{Op: OpSetCull, Cull: c})
	}
}

// BindTexture binds a texture and sampler state to a unit (one state
// call).
func (d *Device) BindTexture(unit int, t *texture.Texture, st texture.SamplerState) {
	if unit < 0 || unit >= shader.NumTexUnits {
		return
	}
	d.state.Tex[unit] = TexBinding{Tex: t, State: st}
	if d.stateCall() {
		smp := st
		d.recorder.Record(Command{Op: OpBindTexture, Unit: uint8(unit), ID: d.ids[t], Sampler: &smp})
	}
}

// SetConst loads one constant register (one state call; games issue
// these in volume, e.g. skinning matrices).
func (d *Device) SetConst(idx int, v gmath.Vec4) {
	if idx < 0 || idx >= shader.NumConsts {
		return
	}
	d.consts[idx] = v
	if d.stateCall() {
		d.recorder.Record(Command{Op: OpSetConst, Unit: uint8(idx), Vec: v})
	}
}

// SetMatrix loads a 4x4 matrix into four consecutive constant registers
// (counted as four state calls, matching how APIs upload matrices).
func (d *Device) SetMatrix(baseIdx int, m gmath.Mat4) {
	for r := 0; r < 4; r++ {
		d.SetConst(baseIdx+r, m.Row(r))
	}
}

// stateCall counts one state call and reports whether the call stream is
// being recorded. Callers build the Command only when it is: a Command
// pointing at a by-value argument would otherwise move that argument to
// the heap on every call, recorded or not.
func (d *Device) stateCall() bool {
	d.frame.StateCalls++
	return d.recorder != nil
}

// DrawIndexed issues one batch with the current state.
func (d *Device) DrawIndexed(vb *geom.VertexBuffer, ib *geom.IndexBuffer,
	prim geom.PrimitiveType, vs, fs *shader.Program) {

	n := len(ib.Indices)
	d.frame.Batches++
	d.frame.Indices += int64(n)
	d.frame.IndexBytes += int64(n * ib.BytesPerIndex)
	d.frame.Primitives += int64(prim.TriangleCount(n))
	// Guard the per-type array: an out-of-range primitive byte (possible
	// only through a hostile trace; the decoder rejects it, this is
	// defense in depth) must not crash the statistics counter.
	if int(prim) < len(d.frame.IndicesByPrim) {
		d.frame.IndicesByPrim[prim] += int64(n)
	}
	w := float64(n)
	d.frame.WeightVertices += w
	d.frame.VSInstrWeighted += w * float64(vs.Len())
	d.frame.FSInstrWeighted += w * float64(fs.Len())
	d.frame.FSTexWeighted += w * float64(fs.TexCount())
	if d.recorder != nil {
		d.recorder.Record(Command{
			Op: OpDraw, ID: d.ids[vb], ID2: d.ids[ib],
			Prim: prim, ProgID: d.ids[vs], ProgID2: d.ids[fs],
		})
	}
	dc := &d.dc
	dc.VB, dc.IB, dc.Prim, dc.VS, dc.FS = vb, ib, prim, vs, fs
	dc.State = d.state
	dc.Consts = d.consts
	d.backend.Execute(dc)
}

// Clear clears the framebuffer (one state call).
func (d *Device) Clear(op ClearOp) {
	if d.stateCall() {
		cop := op
		d.recorder.Record(Command{Op: OpClear, ClearOp: &cop})
	}
	d.backend.Clear(op)
}

// EndFrame closes the current frame: statistics are archived and the
// backend presents.
func (d *Device) EndFrame() {
	if d.recorder != nil {
		d.recorder.Record(Command{Op: OpEndFrame})
	}
	d.backend.EndFrame()
	d.frames = append(d.frames, d.frame)
	d.frame = FrameStats{}
}

// DropFrame discards the in-progress frame's statistics without
// archiving them. A resumed render uses it to shed the resource-creation
// burst its fresh Setup just emitted: in the continuous run that burst
// belongs to frame 0, which the resume already has in its checkpoint.
func (d *Device) DropFrame() {
	d.frame = FrameStats{}
}
