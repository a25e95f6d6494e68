package trace

import (
	"bufio"
	"fmt"
	"slices"

	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
	"gpuchar/internal/rop"
	"gpuchar/internal/shader"
	"gpuchar/internal/texture"
	"gpuchar/internal/zst"
)

// writePayload encodes one API call's payload (everything after the op
// byte; the Recorder frames it with a length).
func writePayload(w *bufio.Writer, c *gfxapi.Command) error {
	switch c.Op {
	case gfxapi.OpCreateVB:
		if err := writeU32(w, c.ID); err != nil {
			return err
		}
		if err := writeU32(w, uint32(c.Stride)); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(c.VBData))); err != nil {
			return err
		}
		for _, attr := range c.VBData {
			if err := writeU32(w, uint32(len(attr))); err != nil {
				return err
			}
			for _, v := range attr {
				if err := writeVec4(w, v); err != nil {
					return err
				}
			}
		}
	case gfxapi.OpCreateIB:
		if err := writeU32(w, c.ID); err != nil {
			return err
		}
		if err := writeU32(w, uint32(c.Stride)); err != nil {
			return err
		}
		if err := writeU32(w, uint32(len(c.IBData))); err != nil {
			return err
		}
		for _, idx := range c.IBData {
			if err := writeU32(w, idx); err != nil {
				return err
			}
		}
	case gfxapi.OpCreateTex:
		if err := writeU32(w, c.ID); err != nil {
			return err
		}
		if err := writeTexSpec(w, &c.TexSpec); err != nil {
			return err
		}
	case gfxapi.OpCreateProgram:
		if err := writeU32(w, c.ID); err != nil {
			return err
		}
		if err := writeProgram(w, c.Program); err != nil {
			return err
		}
	case gfxapi.OpSetZState:
		return writeZState(w, c.ZState)
	case gfxapi.OpSetRopState:
		return writeRopState(w, c.RopState)
	case gfxapi.OpSetCull:
		return writeU8(w, uint8(c.Cull))
	case gfxapi.OpBindTexture:
		if err := writeU8(w, c.Unit); err != nil {
			return err
		}
		if err := writeU32(w, c.ID); err != nil {
			return err
		}
		return writeSampler(w, c.Sampler)
	case gfxapi.OpSetConst:
		if err := writeU8(w, c.Unit); err != nil {
			return err
		}
		return writeVec4(w, c.Vec)
	case gfxapi.OpDraw:
		for _, v := range []uint32{c.ID, c.ID2, c.ProgID, c.ProgID2} {
			if err := writeU32(w, v); err != nil {
				return err
			}
		}
		return writeU8(w, uint8(c.Prim))
	case gfxapi.OpClear:
		return writeClear(w, c.ClearOp)
	case gfxapi.OpEndFrame:
		// no payload
	case gfxapi.OpCreateRT:
		for _, v := range []uint32{c.ID, c.ID2, uint32(c.RTW), uint32(c.RTH)} {
			if err := writeU32(w, v); err != nil {
				return err
			}
		}
		return writeString(w, c.RTName)
	case gfxapi.OpSetRT, gfxapi.OpResolveTex:
		return writeU32(w, c.ID)
	default:
		return fmt.Errorf("trace: cannot encode op %v", c.Op)
	}
	return nil
}

// readPayload decodes one API call's payload into c, whose Op is set,
// validating every length and enum field against the decoder's limits
// before allocating.
func readPayload(d *decoder, c *gfxapi.Command) error {
	var err error
	switch c.Op {
	case gfxapi.OpCreateVB:
		if c.ID, err = d.readU32(); err != nil {
			return err
		}
		stride, err := d.readU32()
		if err != nil {
			return err
		}
		if int64(stride) > int64(d.lim.MaxStride) {
			return fmt.Errorf("vertex stride %d: %w", stride, ErrLimit)
		}
		c.Stride = int(stride)
		nAttr, err := d.readU32()
		if err != nil {
			return err
		}
		if int64(nAttr) > int64(d.lim.MaxAttrs) {
			return fmt.Errorf("%d attributes: %w", nAttr, ErrLimit)
		}
		if err := d.charge(int64(nAttr) * 24); err != nil {
			return err
		}
		c.VBData = make([][]gmath.Vec4, nAttr)
		for i := range c.VBData {
			n, err := d.readU32()
			if err != nil {
				return err
			}
			if int64(n) > int64(d.lim.MaxVertices) {
				return fmt.Errorf("%d vertices: %w", n, ErrLimit)
			}
			// Ragged attribute slots would index out of range in the
			// vertex fetch stage; reject them at the wire.
			if i > 0 && int(n) != len(c.VBData[0]) {
				return fmt.Errorf("ragged vertex buffer: attr %d has %d vertices, attr 0 has %d",
					i, n, len(c.VBData[0]))
			}
			if c.VBData[i], err = d.readVec4s(int(n)); err != nil {
				return err
			}
		}
	case gfxapi.OpCreateIB:
		if c.ID, err = d.readU32(); err != nil {
			return err
		}
		stride, err := d.readU32()
		if err != nil {
			return err
		}
		if int64(stride) > int64(d.lim.MaxStride) {
			return fmt.Errorf("index stride %d: %w", stride, ErrLimit)
		}
		c.Stride = int(stride)
		n, err := d.readU32()
		if err != nil {
			return err
		}
		if int64(n) > int64(d.lim.MaxIndices) {
			return fmt.Errorf("%d indices: %w", n, ErrLimit)
		}
		if c.IBData, err = d.readU32s(int(n)); err != nil {
			return err
		}
	case gfxapi.OpCreateTex:
		if c.ID, err = d.readU32(); err != nil {
			return err
		}
		spec, err := readTexSpec(d)
		if err != nil {
			return err
		}
		c.TexSpec = spec
	case gfxapi.OpCreateProgram:
		if c.ID, err = d.readU32(); err != nil {
			return err
		}
		if c.Program, err = readProgram(d); err != nil {
			return err
		}
	case gfxapi.OpSetZState:
		st, err := readZState(d)
		if err != nil {
			return err
		}
		c.ZState = &st
	case gfxapi.OpSetRopState:
		st, err := readRopState(d)
		if err != nil {
			return err
		}
		c.RopState = &st
	case gfxapi.OpSetCull:
		b, err := d.readU8()
		if err != nil {
			return err
		}
		if b > uint8(geom.CullNone) {
			return fmt.Errorf("unknown cull mode %d", b)
		}
		c.Cull = geom.CullMode(b)
	case gfxapi.OpBindTexture:
		if c.Unit, err = d.readU8(); err != nil {
			return err
		}
		if c.ID, err = d.readU32(); err != nil {
			return err
		}
		st, err := readSampler(d)
		if err != nil {
			return err
		}
		c.Sampler = &st
	case gfxapi.OpSetConst:
		if c.Unit, err = d.readU8(); err != nil {
			return err
		}
		if c.Vec, err = d.readVec4(); err != nil {
			return err
		}
	case gfxapi.OpDraw:
		for _, dst := range []*uint32{&c.ID, &c.ID2, &c.ProgID, &c.ProgID2} {
			if *dst, err = d.readU32(); err != nil {
				return err
			}
		}
		b, err := d.readU8()
		if err != nil {
			return err
		}
		// The per-primitive statistics array is indexed by this byte.
		if b > uint8(geom.TriangleFan) {
			return fmt.Errorf("unknown primitive type %d", b)
		}
		c.Prim = geom.PrimitiveType(b)
	case gfxapi.OpClear:
		op, err := readClear(d)
		if err != nil {
			return err
		}
		c.ClearOp = &op
	case gfxapi.OpEndFrame:
	case gfxapi.OpCreateRT:
		var u [4]uint32
		for i := range u {
			if u[i], err = d.readU32(); err != nil {
				return err
			}
		}
		if int64(u[2]) > int64(d.lim.MaxTexDim) || int64(u[3]) > int64(d.lim.MaxTexDim) {
			return fmt.Errorf("render target %dx%d: %w", u[2], u[3], ErrLimit)
		}
		// The replaying device materializes a color plane, a depth plane
		// and a resolve texture for this surface; charge the dominant
		// footprint against the allocation budget before the player can
		// reach the device. Row-by-row, so a hostile dimension claim
		// cannot push the Allocated counter more than one row (MaxTexDim
		// * 4 bytes) past the budget.
		for y := 0; y < int(u[3]); y++ {
			if err := d.charge(int64(u[2]) * 4); err != nil {
				return err
			}
		}
		c.ID, c.ID2, c.RTW, c.RTH = u[0], u[1], int(u[2]), int(u[3])
		if c.RTName, err = d.readString(); err != nil {
			return err
		}
	case gfxapi.OpSetRT, gfxapi.OpResolveTex:
		if c.ID, err = d.readU32(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("op %d: %w", uint8(c.Op), ErrUnknownOp)
	}
	return nil
}

func writeProgram(w *bufio.Writer, p *shader.Program) error {
	if err := writeString(w, p.Name); err != nil {
		return err
	}
	if err := writeU8(w, uint8(p.Kind)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(p.Instrs))); err != nil {
		return err
	}
	for _, in := range p.Instrs {
		fields := []uint8{
			uint8(in.Op), uint8(in.Dst.File), in.Dst.Index, in.Dst.Mask,
			in.TexUnit,
		}
		for _, f := range fields {
			if err := writeU8(w, f); err != nil {
				return err
			}
		}
		for s := 0; s < 3; s++ {
			src := in.Src[s]
			neg := uint8(0)
			if src.Negate {
				neg = 1
			}
			fields := []uint8{
				uint8(src.File), src.Index, neg,
				src.Swizzle[0], src.Swizzle[1], src.Swizzle[2], src.Swizzle[3],
			}
			for _, f := range fields {
				if err := writeU8(w, f); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func readProgram(d *decoder) (*shader.Program, error) {
	name, err := d.readString()
	if err != nil {
		return nil, err
	}
	kind, err := d.readU8()
	if err != nil {
		return nil, err
	}
	if kind > uint8(shader.FragmentProgram) {
		return nil, fmt.Errorf("unknown program kind %d", kind)
	}
	n, err := d.readU32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(d.lim.MaxProgramInstrs) {
		return nil, fmt.Errorf("program length %d: %w", n, ErrLimit)
	}
	if err := d.charge(int64(n) * 32); err != nil {
		return nil, err
	}
	p := &shader.Program{Name: name, Kind: shader.Kind(kind)}
	p.Instrs = make([]shader.Instruction, n)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		var b [5]uint8
		for j := range b {
			if b[j], err = d.readU8(); err != nil {
				return nil, err
			}
		}
		in.Op = shader.Opcode(b[0])
		in.Dst = shader.Dst{File: shader.RegFile(b[1]), Index: b[2], Mask: b[3]}
		in.TexUnit = b[4]
		for s := 0; s < 3; s++ {
			var sb [7]uint8
			for j := range sb {
				if sb[j], err = d.readU8(); err != nil {
					return nil, err
				}
			}
			in.Src[s] = shader.Src{
				File: shader.RegFile(sb[0]), Index: sb[1], Negate: sb[2] != 0,
				Swizzle: shader.Swizzle{sb[3], sb[4], sb[5], sb[6]},
			}
		}
	}
	// The device revalidates on CreateProgram; validating here as well
	// pins the error to the command's stream position.
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func writeTexSpec(w *bufio.Writer, s *gfxapi.TextureSpec) error {
	if err := writeString(w, s.Name); err != nil {
		return err
	}
	for _, b := range []uint8{uint8(s.Format), uint8(s.Kind)} {
		if err := writeU8(w, b); err != nil {
			return err
		}
	}
	for _, v := range []uint32{uint32(s.W), uint32(s.H), uint32(s.Cell), s.Seed} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	for _, c := range []texture.RGBA{s.ColorA, s.ColorB} {
		for _, b := range []uint8{c.R, c.G, c.B, c.A} {
			if err := writeU8(w, b); err != nil {
				return err
			}
		}
	}
	if err := writeU32(w, uint32(len(s.Data))); err != nil {
		return err
	}
	for _, c := range s.Data {
		for _, b := range []uint8{c.R, c.G, c.B, c.A} {
			if err := writeU8(w, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func readTexSpec(d *decoder) (gfxapi.TextureSpec, error) {
	var s gfxapi.TextureSpec
	var err error
	if s.Name, err = d.readString(); err != nil {
		return s, err
	}
	fm, err := d.readU8()
	if err != nil {
		return s, err
	}
	if fm > uint8(texture.FormatDXT5) {
		return s, fmt.Errorf("unknown texture format %d", fm)
	}
	s.Format = texture.Format(fm)
	kd, err := d.readU8()
	if err != nil {
		return s, err
	}
	if kd > uint8(gfxapi.KindBlockNoise) {
		return s, fmt.Errorf("unknown texture kind %d", kd)
	}
	s.Kind = gfxapi.TextureKind(kd)
	var u [4]uint32
	for i := range u {
		if u[i], err = d.readU32(); err != nil {
			return s, err
		}
	}
	if int64(u[0]) > int64(d.lim.MaxTexDim) || int64(u[1]) > int64(d.lim.MaxTexDim) {
		return s, fmt.Errorf("texture %dx%d: %w", u[0], u[1], ErrLimit)
	}
	s.W, s.H, s.Cell, s.Seed = int(u[0]), int(u[1]), int(u[2]), u[3]
	readRGBA := func() (texture.RGBA, error) {
		var c texture.RGBA
		var b [4]uint8
		for i := range b {
			if b[i], err = d.readU8(); err != nil {
				return c, err
			}
		}
		return texture.RGBA{R: b[0], G: b[1], B: b[2], A: b[3]}, nil
	}
	if s.ColorA, err = readRGBA(); err != nil {
		return s, err
	}
	if s.ColorB, err = readRGBA(); err != nil {
		return s, err
	}
	n, err := d.readU32()
	if err != nil {
		return s, err
	}
	if int64(n) > int64(d.lim.MaxTexels) {
		return s, fmt.Errorf("%d texels: %w", n, ErrLimit)
	}
	const chunk = 4096
	for len(s.Data) < int(n) {
		c := min(int(n)-len(s.Data), chunk)
		if err := d.charge(int64(c) * 4); err != nil {
			return s, err
		}
		b, err := d.bulk(c*4, 1)
		if err != nil {
			return s, err
		}
		s.Data = slices.Grow(s.Data, c)
		for ; len(b) >= 4; b = b[4:] {
			s.Data = append(s.Data, texture.RGBA{R: b[0], G: b[1], B: b[2], A: b[3]})
		}
	}
	return s, nil
}

func boolByte(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func writeZState(w *bufio.Writer, st *zst.State) error {
	bytes := []uint8{
		boolByte(st.ZTest), uint8(st.ZFunc), boolByte(st.ZWrite),
		boolByte(st.StencilTest), uint8(st.StencilFunc), st.StencilRef,
		st.StencilMask,
		uint8(st.Front.Fail), uint8(st.Front.ZFail), uint8(st.Front.ZPass),
		uint8(st.Back.Fail), uint8(st.Back.ZFail), uint8(st.Back.ZPass),
		boolByte(st.HZ),
	}
	for _, b := range bytes {
		if err := writeU8(w, b); err != nil {
			return err
		}
	}
	return nil
}

func readZState(d *decoder) (zst.State, error) {
	var b [14]uint8
	var err error
	for i := range b {
		if b[i], err = d.readU8(); err != nil {
			return zst.State{}, err
		}
	}
	return zst.State{
		ZTest: b[0] != 0, ZFunc: zst.CompareFunc(b[1]), ZWrite: b[2] != 0,
		StencilTest: b[3] != 0, StencilFunc: zst.CompareFunc(b[4]),
		StencilRef: b[5], StencilMask: b[6],
		Front: zst.FaceOps{Fail: zst.StencilOp(b[7]), ZFail: zst.StencilOp(b[8]),
			ZPass: zst.StencilOp(b[9])},
		Back: zst.FaceOps{Fail: zst.StencilOp(b[10]), ZFail: zst.StencilOp(b[11]),
			ZPass: zst.StencilOp(b[12])},
		HZ: b[13] != 0,
	}, nil
}

func writeRopState(w *bufio.Writer, st *rop.State) error {
	bytes := []uint8{
		boolByte(st.Blend), uint8(st.SrcFactor), uint8(st.DstFactor),
		boolByte(st.WriteMask[0]), boolByte(st.WriteMask[1]),
		boolByte(st.WriteMask[2]), boolByte(st.WriteMask[3]),
	}
	for _, b := range bytes {
		if err := writeU8(w, b); err != nil {
			return err
		}
	}
	return nil
}

func readRopState(d *decoder) (rop.State, error) {
	var b [7]uint8
	var err error
	for i := range b {
		if b[i], err = d.readU8(); err != nil {
			return rop.State{}, err
		}
	}
	return rop.State{
		Blend: b[0] != 0, SrcFactor: rop.BlendFactor(b[1]),
		DstFactor: rop.BlendFactor(b[2]),
		WriteMask: [4]bool{b[3] != 0, b[4] != 0, b[5] != 0, b[6] != 0},
	}, nil
}

func writeSampler(w *bufio.Writer, st *texture.SamplerState) error {
	if err := writeU8(w, uint8(st.Filter)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(st.MaxAniso)); err != nil {
		return err
	}
	return writeF32(w, st.LODBias)
}

func readSampler(d *decoder) (texture.SamplerState, error) {
	var st texture.SamplerState
	f, err := d.readU8()
	if err != nil {
		return st, err
	}
	if f > uint8(texture.FilterAniso) {
		return st, fmt.Errorf("unknown filter mode %d", f)
	}
	st.Filter = texture.FilterMode(f)
	ma, err := d.readU32()
	if err != nil {
		return st, err
	}
	// The anisotropic filter walks MaxAniso probes per fragment, so an
	// unbounded wire value is a denial of service.
	if int64(ma) > int64(d.lim.MaxAniso) {
		return st, fmt.Errorf("aniso ratio %d: %w", ma, ErrLimit)
	}
	st.MaxAniso = int(ma)
	st.LODBias, err = d.readF32()
	return st, err
}

func writeClear(w *bufio.Writer, op *gfxapi.ClearOp) error {
	if err := writeVec4(w, op.Color); err != nil {
		return err
	}
	if err := writeF32(w, op.Z); err != nil {
		return err
	}
	bytes := []uint8{op.Stencil, boolByte(op.ClearColor),
		boolByte(op.ClearDepth), boolByte(op.ClearStencil)}
	for _, b := range bytes {
		if err := writeU8(w, b); err != nil {
			return err
		}
	}
	return nil
}

func readClear(d *decoder) (gfxapi.ClearOp, error) {
	var op gfxapi.ClearOp
	var err error
	if op.Color, err = d.readVec4(); err != nil {
		return op, err
	}
	if op.Z, err = d.readF32(); err != nil {
		return op, err
	}
	var b [4]uint8
	for i := range b {
		if b[i], err = d.readU8(); err != nil {
			return op, err
		}
	}
	op.Stencil = b[0]
	op.ClearColor, op.ClearDepth, op.ClearStencil = b[1] != 0, b[2] != 0, b[3] != 0
	return op, nil
}
