package trace

import (
	"errors"
	"fmt"
	"io"

	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/shader"
	"gpuchar/internal/texture"
)

// Mode selects how the player treats bad commands.
type Mode uint8

// Replay modes.
const (
	// Strict fails fast on the first bad command — the right default
	// for tests and for validating a fresh capture.
	Strict Mode = iota
	// Lenient skips bad commands and keeps replaying, counting what was
	// dropped in a ReplayReport — how PIX-style players tolerate
	// partial or damaged captures while salvaging the rest.
	Lenient
)

// String names the mode.
func (m Mode) String() string {
	if m == Lenient {
		return "lenient"
	}
	return "strict"
}

// ReplayReport accounts for everything a replay skipped or degraded.
// After a Strict replay it is all zeros (the first problem aborts);
// after a Lenient one it is the damage report.
type ReplayReport struct {
	// Commands is the number of commands read from the stream,
	// including ones that failed to decode.
	Commands int64
	// Frames is the number of EndFrame boundaries replayed.
	Frames int
	// SkippedUnknownOps counts framed commands with an opcode this
	// build does not know (newer writer, or corruption).
	SkippedUnknownOps int64
	// SkippedBadCommands counts commands dropped for any other reason:
	// undecodable payloads, rejected resources, recovered panics.
	SkippedBadCommands int64
	// DanglingResources counts references to IDs that were never
	// created (or whose creation was itself skipped).
	DanglingResources int64
	// DegradedDraws counts draws that replayed with out-of-range
	// indices dropped by the vertex fetch stage.
	DegradedDraws int64
	// Errs holds the first few failures, in stream order, for triage.
	Errs []error
}

// maxReportErrs caps how many failures a report retains verbatim.
const maxReportErrs = 16

func (rep *ReplayReport) addErr(err error) {
	if len(rep.Errs) < maxReportErrs {
		rep.Errs = append(rep.Errs, err)
	}
}

// Clean reports whether the replay had nothing to skip or degrade.
func (rep *ReplayReport) Clean() bool {
	return rep.SkippedUnknownOps == 0 && rep.SkippedBadCommands == 0 &&
		rep.DanglingResources == 0 && rep.DegradedDraws == 0
}

// Summary renders the report as one line.
func (rep *ReplayReport) Summary() string {
	return fmt.Sprintf("%d commands, %d frames, %d unknown ops skipped, "+
		"%d bad commands skipped, %d dangling resources, %d degraded draws",
		rep.Commands, rep.Frames, rep.SkippedUnknownOps,
		rep.SkippedBadCommands, rep.DanglingResources, rep.DegradedDraws)
}

// Player replays a recorded trace against a device, re-materializing
// resources and reissuing every call in order — the simulator-driving
// half of the paper's methodology.
type Player struct {
	dev  *gfxapi.Device
	mode Mode

	vbs   map[uint32]*geom.VertexBuffer
	ibs   map[uint32]replayIB
	texs  map[uint32]*texture.Texture
	progs map[uint32]*shader.Program
	rts   map[uint32]*gfxapi.RenderTarget

	// position of the command currently being applied, for errors.
	cmdIdx int64
	cmdOff int64

	report ReplayReport
}

// NewPlayer creates a player issuing calls into dev, in Strict mode.
func NewPlayer(dev *gfxapi.Device) *Player {
	return &Player{
		dev:   dev,
		vbs:   map[uint32]*geom.VertexBuffer{},
		ibs:   map[uint32]replayIB{},
		texs:  map[uint32]*texture.Texture{},
		progs: map[uint32]*shader.Program{},
		rts:   map[uint32]*gfxapi.RenderTarget{},
	}
}

// SetMode selects Strict (default) or Lenient replay.
func (p *Player) SetMode(m Mode) { p.mode = m }

// Report returns the accumulated replay report.
func (p *Player) Report() *ReplayReport { return &p.report }

// Play replays the whole trace. It returns the number of frames played.
// In Strict mode the first bad command aborts with a *FormatError or
// *ReplayError; in Lenient mode recoverable problems are counted in the
// Report and only unrecoverable stream damage (truncation, header
// corruption, blown allocation budget on an unframed stream) aborts.
func (p *Player) Play(r *Reader) (int, error) {
	var cmd gfxapi.Command
	for {
		p.cmdIdx, p.cmdOff = r.Commands(), r.Offset()
		err := r.next(&cmd)
		p.report.Commands = r.Commands()
		if err == io.EOF {
			return p.report.Frames, nil
		}
		if err != nil {
			if p.mode == Lenient {
				var fe *FormatError
				if errors.As(err, &fe) && fe.Resynced() {
					if errors.Is(err, ErrUnknownOp) {
						p.report.SkippedUnknownOps++
					} else {
						p.report.SkippedBadCommands++
					}
					p.report.addErr(err)
					continue
				}
			}
			return p.report.Frames, err
		}
		if err := p.applyGuarded(&cmd); err != nil {
			if p.mode == Lenient {
				p.report.SkippedBadCommands++
				p.report.addErr(err)
				continue
			}
			return p.report.Frames, err
		}
	}
}

// Apply executes a single decoded command. Errors (including panics
// recovered at the device boundary) come back as *ReplayError.
func (p *Player) Apply(c *gfxapi.Command) error {
	return p.applyGuarded(c)
}

// applyGuarded runs apply under a recover guard: any residual panic in
// a pipeline stage (cache, shader, texture, rasterizer) is converted
// into a *ReplayError carrying the command's stream position, so one
// poisoned command cannot kill the process hosting eleven other demos.
func (p *Player) applyGuarded(c *gfxapi.Command) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = p.replayErr(c.Op, fmt.Errorf("panic: %v", rec))
		}
	}()
	return p.apply(c)
}

func (p *Player) replayErr(op gfxapi.Op, err error) error {
	return &ReplayError{Cmd: p.cmdIdx, Offset: p.cmdOff, Op: op, Err: err}
}

func (p *Player) apply(c *gfxapi.Command) error {
	switch c.Op {
	case gfxapi.OpCreateVB:
		p.vbs[c.ID] = p.dev.CreateVertexBuffer(c.VBData, c.Stride)
	case gfxapi.OpCreateIB:
		ib := p.dev.CreateIndexBuffer(c.IBData, c.Stride)
		p.ibs[c.ID] = replayIB{ib: ib, end: indexEnd(ib.Indices)}
	case gfxapi.OpCreateTex:
		t, err := p.dev.CreateTexture(c.TexSpec)
		if err != nil {
			return p.replayErr(c.Op, fmt.Errorf("texture %d: %w", c.ID, err))
		}
		p.texs[c.ID] = t
	case gfxapi.OpCreateProgram:
		prog, err := p.dev.CreateProgram(c.Program)
		if err != nil {
			return p.replayErr(c.Op, fmt.Errorf("program %d: %w", c.ID, err))
		}
		p.progs[c.ID] = prog
	case gfxapi.OpSetZState:
		p.dev.SetZState(*c.ZState)
	case gfxapi.OpSetRopState:
		p.dev.SetRopState(*c.RopState)
	case gfxapi.OpSetCull:
		p.dev.SetCull(c.Cull)
	case gfxapi.OpBindTexture:
		t := p.texs[c.ID]
		if t == nil && c.ID != 0 {
			p.report.DanglingResources++
			return p.replayErr(c.Op, fmt.Errorf("bind of unknown texture %d", c.ID))
		}
		p.dev.BindTexture(int(c.Unit), t, *c.Sampler)
	case gfxapi.OpSetConst:
		p.dev.SetConst(int(c.Unit), c.Vec)
	case gfxapi.OpDraw:
		vb, rib := p.vbs[c.ID], p.ibs[c.ID2]
		vs, fs := p.progs[c.ProgID], p.progs[c.ProgID2]
		if vb == nil || rib.ib == nil || vs == nil || fs == nil {
			p.report.DanglingResources++
			return p.replayErr(c.Op, fmt.Errorf("draw references missing resources "+
				"(vb=%d ib=%d vs=%d fs=%d)", c.ID, c.ID2, c.ProgID, c.ProgID2))
		}
		if rib.end > int64(vb.NumVertices()) {
			// The vertex fetch stage drops out-of-range indices, so the
			// draw replays with fewer vertices than recorded.
			if p.mode == Strict {
				return p.replayErr(c.Op, fmt.Errorf(
					"draw has %d indices out of range (vb has %d vertices)",
					oversizedIndices(vb, rib.ib), vb.NumVertices()))
			}
			p.report.DegradedDraws++
		}
		p.dev.DrawIndexed(vb, rib.ib, c.Prim, vs, fs)
	case gfxapi.OpClear:
		p.dev.Clear(*c.ClearOp)
	case gfxapi.OpEndFrame:
		p.dev.EndFrame()
		p.report.Frames++
	case gfxapi.OpCreateRT:
		rt, err := p.dev.CreateRenderTarget(c.RTName, c.RTW, c.RTH)
		if err != nil {
			return p.replayErr(c.Op, fmt.Errorf("render target %d: %w", c.ID, err))
		}
		p.rts[c.ID] = rt
		// The resolve texture is addressable by later BindTexture calls.
		p.texs[c.ID2] = rt.Tex
	case gfxapi.OpSetRT:
		if c.ID == 0 {
			p.dev.SetRenderTarget(nil)
			break
		}
		rt := p.rts[c.ID]
		if rt == nil {
			p.report.DanglingResources++
			return p.replayErr(c.Op, fmt.Errorf("bind of unknown render target %d", c.ID))
		}
		p.dev.SetRenderTarget(rt)
	case gfxapi.OpResolveTex:
		rt := p.rts[c.ID]
		if rt == nil {
			p.report.DanglingResources++
			return p.replayErr(c.Op, fmt.Errorf("resolve of unknown render target %d", c.ID))
		}
		if err := p.dev.ResolveToTexture(rt); err != nil {
			return p.replayErr(c.Op, err)
		}
	default:
		return p.replayErr(c.Op, fmt.Errorf("cannot replay op %d", uint8(c.Op)))
	}
	return nil
}

// replayIB is a replayed index buffer with its index range, computed
// once at creation: buffer contents never change after it, so a draw
// needs the full scan of oversizedIndices only when end says some index
// is out of range for the draw's vertex buffer.
type replayIB struct {
	ib  *geom.IndexBuffer
	end int64 // one past the largest index; 0 for an empty buffer
}

// indexEnd returns one past the largest index, 0 for no indices.
func indexEnd(ix []uint32) int64 {
	var m int64
	for _, i := range ix {
		m = max(m, int64(i)+1)
	}
	return m
}

// oversizedIndices counts indices referencing vertices the buffer does
// not have.
func oversizedIndices(vb *geom.VertexBuffer, ib *geom.IndexBuffer) int {
	nv := uint32(vb.NumVertices())
	n := 0
	for _, idx := range ib.Indices {
		if idx >= nv {
			n++
		}
	}
	return n
}
