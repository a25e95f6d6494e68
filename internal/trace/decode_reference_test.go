package trace

// This file is the reference decoder: the field-at-a-time decoder the
// bulk one replaced, kept verbatim apart from its identifiers (every
// name carries a ref prefix). decode_test.go decodes the same streams
// with both and requires identical commands, errors, offsets and
// allocation accounting after every command.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"gpuchar/internal/geom"
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/gmath"
	"gpuchar/internal/rop"
	"gpuchar/internal/shader"
	"gpuchar/internal/texture"
	"gpuchar/internal/zst"
)

// refReader decodes a trace stream command by command, validating every
// length field against its Limits before allocating.
type refReader struct {
	cr  *countingReader
	br  *bufio.Reader
	api gfxapi.API
	ver uint8

	lim   Limits
	alloc int64 // cumulative bytes materialized, charged against AllocBudget
	cmds  int64 // commands decoded (including failed ones)
}

// newRefReader is NewReader with explicit decode limits. Header
// damage is reported as a *FormatError with Cmd -1, so callers can
// classify a rejected file without caring where the corruption sits.
func newRefReader(r io.Reader, lim Limits) (*refReader, error) {
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
	return &refReader{cr: cr, br: br, api: gfxapi.API(apiB), ver: ver, lim: lim}, nil
}

// Offset returns the byte offset of the next unread trace byte.
func (r *refReader) Offset() int64 { return r.cr.n - int64(r.br.Buffered()) }

// Commands returns how many commands Next has consumed so far,
// including commands that failed to decode.
func (r *refReader) Commands() int64 { return r.cmds }

// Allocated returns the cumulative bytes the refDecoder has materialized.
func (r *refReader) Allocated() int64 { return r.alloc }

// Next decodes the next command; io.EOF signals a clean end of trace.
// Any other failure is a *FormatError carrying the command index, byte
// offset and op. A stream that ends inside a command wraps
// io.ErrUnexpectedEOF. On a v2 stream, a *FormatError with
// Resynced() == true leaves the reader positioned at the next command,
// so a lenient caller may keep reading.
func (r *refReader) Next() (gfxapi.Command, error) {
	var c gfxapi.Command
	start := r.Offset()
	opB, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return c, io.EOF // clean end of trace
		}
		return c, r.formatErr(start, c.Op, err)
	}
	c.Op = gfxapi.Op(opB)
	idx := r.cmds
	r.cmds++

	d := refDecoder{r: r.br, lim: r.lim, alloc: &r.alloc, rem: -1}
	if r.ver >= 2 {
		n, err := d.readU32()
		if err != nil {
			return c, r.cmdErr(idx, start, c.Op, refEOFToUnexpected(err))
		}
		if int64(n) > r.lim.MaxCommandBytes {
			return c, r.cmdErr(idx, start, c.Op,
				fmt.Errorf("payload of %d bytes: %w", n, ErrLimit))
		}
		d.rem = int64(n)
	}

	c, err = refReadPayload(&d, c)
	if err == nil && d.rem > 0 {
		// A known op that left payload bytes unread is corrupt (the
		// encoder never writes trailing bytes).
		err = fmt.Errorf("%d trailing payload bytes", d.rem)
	}
	if err == nil {
		return c, nil
	}
	err = refEOFToUnexpected(err)

	// On a framed stream the payload length is known even when its
	// contents are not decodable, so skip to the next command boundary
	// and mark the error resynced.
	if d.rem > 0 && !refIsTruncation(err) {
		if _, derr := io.CopyN(io.Discard, r.br, d.rem); derr != nil {
			return c, r.cmdErr(idx, start, c.Op, io.ErrUnexpectedEOF)
		}
		d.rem = 0
	}
	fe := &FormatError{Cmd: idx, Offset: start, Op: c.Op, Err: err}
	fe.resynced = r.ver >= 2 && d.rem == 0 && !refIsTruncation(err)
	return c, fe
}

func (r *refReader) cmdErr(idx, off int64, op gfxapi.Op, err error) error {
	return &FormatError{Cmd: idx, Offset: off, Op: op, Err: err}
}

func (r *refReader) formatErr(off int64, op gfxapi.Op, err error) error {
	return &FormatError{Cmd: r.cmds, Offset: off, Op: op, Err: err}
}

// refEOFToUnexpected converts a bare EOF inside a command payload into
// io.ErrUnexpectedEOF: the stream ended where bytes were promised.
func refEOFToUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// refIsTruncation reports whether err means the underlying stream ran out,
// as opposed to the bytes being present but invalid.
func refIsTruncation(err error) bool {
	return err == io.ErrUnexpectedEOF || err == io.EOF
}

// refDecoder reads one command payload. For framed (v2) streams rem holds
// the payload bytes still owed; every read is checked against it so a
// payload cannot read into the next command. rem < 0 disables framing
// (v1 streams). alloc accumulates materialized bytes against
// lim.AllocBudget.
type refDecoder struct {
	r     *bufio.Reader
	lim   Limits
	alloc *int64
	rem   int64
}

// take accounts n payload bytes about to be read.
func (d *refDecoder) take(n int) error {
	if d.rem < 0 {
		return nil
	}
	if int64(n) > d.rem {
		return fmt.Errorf("payload overrun: need %d bytes, %d left", n, d.rem)
	}
	d.rem -= int64(n)
	return nil
}

// charge accounts n bytes of refDecoder-side allocation against the
// cumulative budget.
func (d *refDecoder) charge(n int64) error {
	*d.alloc += n
	if d.lim.AllocBudget > 0 && *d.alloc > d.lim.AllocBudget {
		return fmt.Errorf("%w: %d bytes over %d",
			ErrBudget, *d.alloc, d.lim.AllocBudget)
	}
	return nil
}

func (d *refDecoder) readU8() (uint8, error) {
	if err := d.take(1); err != nil {
		return 0, err
	}
	return d.r.ReadByte()
}

func (d *refDecoder) readU32() (uint32, error) {
	if err := d.take(4); err != nil {
		return 0, err
	}
	var b [4]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (d *refDecoder) readF32() (float32, error) {
	v, err := d.readU32()
	return math.Float32frombits(v), err
}

func (d *refDecoder) readVec4() (gmath.Vec4, error) {
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

func (d *refDecoder) readString() (string, error) {
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

// readVec4s reads n Vec4s, growing the slice in chunks so a length
// field pointing past a truncation cannot commit one giant make.
func (d *refDecoder) readVec4s(n int) ([]gmath.Vec4, error) {
	const chunk = 4096
	var out []gmath.Vec4
	for len(out) < n {
		c := n - len(out)
		if c > chunk {
			c = chunk
		}
		if err := d.charge(int64(c) * 16); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			v, err := d.readVec4()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// readU32s reads n uint32s in chunks, like readVec4s.
func (d *refDecoder) readU32s(n int) ([]uint32, error) {
	const chunk = 16384
	var out []uint32
	for len(out) < n {
		c := n - len(out)
		if c > chunk {
			c = chunk
		}
		if err := d.charge(int64(c) * 4); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			v, err := d.readU32()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// refReadPayload decodes one API call's payload, validating every length
// and enum field against the refDecoder's limits before allocating.
func refReadPayload(d *refDecoder, c gfxapi.Command) (gfxapi.Command, error) {
	var err error
	switch c.Op {
	case gfxapi.OpCreateVB:
		if c.ID, err = d.readU32(); err != nil {
			return c, err
		}
		stride, err := d.readU32()
		if err != nil {
			return c, err
		}
		if int64(stride) > int64(d.lim.MaxStride) {
			return c, fmt.Errorf("vertex stride %d: %w", stride, ErrLimit)
		}
		c.Stride = int(stride)
		nAttr, err := d.readU32()
		if err != nil {
			return c, err
		}
		if int64(nAttr) > int64(d.lim.MaxAttrs) {
			return c, fmt.Errorf("%d attributes: %w", nAttr, ErrLimit)
		}
		if err := d.charge(int64(nAttr) * 24); err != nil {
			return c, err
		}
		c.VBData = make([][]gmath.Vec4, nAttr)
		for i := range c.VBData {
			n, err := d.readU32()
			if err != nil {
				return c, err
			}
			if int64(n) > int64(d.lim.MaxVertices) {
				return c, fmt.Errorf("%d vertices: %w", n, ErrLimit)
			}
			// Ragged attribute slots would index out of range in the
			// vertex fetch stage; reject them at the wire.
			if i > 0 && int(n) != len(c.VBData[0]) {
				return c, fmt.Errorf("ragged vertex buffer: attr %d has %d vertices, attr 0 has %d",
					i, n, len(c.VBData[0]))
			}
			if c.VBData[i], err = d.readVec4s(int(n)); err != nil {
				return c, err
			}
		}
	case gfxapi.OpCreateIB:
		if c.ID, err = d.readU32(); err != nil {
			return c, err
		}
		stride, err := d.readU32()
		if err != nil {
			return c, err
		}
		if int64(stride) > int64(d.lim.MaxStride) {
			return c, fmt.Errorf("index stride %d: %w", stride, ErrLimit)
		}
		c.Stride = int(stride)
		n, err := d.readU32()
		if err != nil {
			return c, err
		}
		if int64(n) > int64(d.lim.MaxIndices) {
			return c, fmt.Errorf("%d indices: %w", n, ErrLimit)
		}
		if c.IBData, err = d.readU32s(int(n)); err != nil {
			return c, err
		}
	case gfxapi.OpCreateTex:
		if c.ID, err = d.readU32(); err != nil {
			return c, err
		}
		spec, err := refReadTexSpec(d)
		if err != nil {
			return c, err
		}
		c.TexSpec = spec
	case gfxapi.OpCreateProgram:
		if c.ID, err = d.readU32(); err != nil {
			return c, err
		}
		if c.Program, err = refReadProgram(d); err != nil {
			return c, err
		}
	case gfxapi.OpSetZState:
		st, err := refReadZState(d)
		if err != nil {
			return c, err
		}
		c.ZState = &st
	case gfxapi.OpSetRopState:
		st, err := refReadRopState(d)
		if err != nil {
			return c, err
		}
		c.RopState = &st
	case gfxapi.OpSetCull:
		b, err := d.readU8()
		if err != nil {
			return c, err
		}
		if b > uint8(geom.CullNone) {
			return c, fmt.Errorf("unknown cull mode %d", b)
		}
		c.Cull = geom.CullMode(b)
	case gfxapi.OpBindTexture:
		if c.Unit, err = d.readU8(); err != nil {
			return c, err
		}
		if c.ID, err = d.readU32(); err != nil {
			return c, err
		}
		st, err := refReadSampler(d)
		if err != nil {
			return c, err
		}
		c.Sampler = &st
	case gfxapi.OpSetConst:
		if c.Unit, err = d.readU8(); err != nil {
			return c, err
		}
		if c.Vec, err = d.readVec4(); err != nil {
			return c, err
		}
	case gfxapi.OpDraw:
		for _, dst := range []*uint32{&c.ID, &c.ID2, &c.ProgID, &c.ProgID2} {
			if *dst, err = d.readU32(); err != nil {
				return c, err
			}
		}
		b, err := d.readU8()
		if err != nil {
			return c, err
		}
		// The per-primitive statistics array is indexed by this byte.
		if b > uint8(geom.TriangleFan) {
			return c, fmt.Errorf("unknown primitive type %d", b)
		}
		c.Prim = geom.PrimitiveType(b)
	case gfxapi.OpClear:
		op, err := refReadClear(d)
		if err != nil {
			return c, err
		}
		c.ClearOp = &op
	case gfxapi.OpEndFrame:
	case gfxapi.OpCreateRT:
		var u [4]uint32
		for i := range u {
			if u[i], err = d.readU32(); err != nil {
				return c, err
			}
		}
		if int64(u[2]) > int64(d.lim.MaxTexDim) || int64(u[3]) > int64(d.lim.MaxTexDim) {
			return c, fmt.Errorf("render target %dx%d: %w", u[2], u[3], ErrLimit)
		}
		// The replaying device materializes a color plane, a depth plane
		// and a resolve texture for this surface; charge the dominant
		// footprint against the allocation budget before the player can
		// reach the device. Row-by-row, so a hostile dimension claim
		// cannot push the Allocated counter more than one row (MaxTexDim
		// * 4 bytes) past the budget.
		for y := 0; y < int(u[3]); y++ {
			if err := d.charge(int64(u[2]) * 4); err != nil {
				return c, err
			}
		}
		c.ID, c.ID2, c.RTW, c.RTH = u[0], u[1], int(u[2]), int(u[3])
		if c.RTName, err = d.readString(); err != nil {
			return c, err
		}
	case gfxapi.OpSetRT, gfxapi.OpResolveTex:
		if c.ID, err = d.readU32(); err != nil {
			return c, err
		}
	default:
		return c, fmt.Errorf("op %d: %w", uint8(c.Op), ErrUnknownOp)
	}
	return c, nil
}

func refReadProgram(d *refDecoder) (*shader.Program, error) {
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

func refReadTexSpec(d *refDecoder) (gfxapi.TextureSpec, error) {
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
		c := int(n) - len(s.Data)
		if c > chunk {
			c = chunk
		}
		if err := d.charge(int64(c) * 4); err != nil {
			return s, err
		}
		for i := 0; i < c; i++ {
			t, err := readRGBA()
			if err != nil {
				return s, err
			}
			s.Data = append(s.Data, t)
		}
	}
	return s, nil
}

func refReadZState(d *refDecoder) (zst.State, error) {
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

func refReadRopState(d *refDecoder) (rop.State, error) {
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

func refReadSampler(d *refDecoder) (texture.SamplerState, error) {
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

func refReadClear(d *refDecoder) (gfxapi.ClearOp, error) {
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
