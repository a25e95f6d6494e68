package geom

import "gpuchar/internal/gmath"

// The reference clipper: the allocating clipCullEmit/clipPolygon the
// scratch-buffer implementation replaced, kept verbatim (only renamed and
// detached from the Pipeline, whose state it never read) as the oracle
// for the differential tests in clip_test.go.

// refClipCullEmit classifies one assembled triangle and appends its screen
// triangles to out when it survives.
func refClipCullEmit(v0, v1, v2 *ShadedVertex, cfg Config,
	out *[]Triangle) clipResult {

	c0 := gmath.OutcodeOf(v0.ClipPos)
	c1 := gmath.OutcodeOf(v1.ClipPos)
	c2 := gmath.OutcodeOf(v2.ClipPos)
	if c0&c1&c2 != 0 {
		return resultClipped // trivially outside one plane
	}

	verts := []ShadedVertex{*v0, *v1, *v2}
	if c0|c1|c2 != 0 {
		// Straddles the frustum: Sutherland-Hodgman clip in homogeneous
		// space against all six planes.
		verts = refClipPolygon(verts)
		if len(verts) < 3 {
			return resultClipped
		}
	}

	// Project to screen space.
	screen := make([]ScreenVertex, len(verts))
	for i := range verts {
		screen[i] = toScreen(&verts[i], cfg)
	}

	// Face cull using the signed area of the first sub-triangle (the
	// polygon is planar and convex, so all sub-triangles agree).
	area := signedArea(screen[0], screen[1], screen[2])
	front := area > 0
	switch cfg.Cull {
	case CullBack:
		if area <= 0 {
			return resultCulled
		}
	case CullFront:
		if area >= 0 {
			return resultCulled
		}
		// Kept triangles are back-facing: re-wind to CCW for setup.
		reverse(screen)
	default:
		if area == 0 {
			return resultCulled // degenerate
		}
		if !front {
			reverse(screen)
		}
	}

	// Fan-triangulate the clipped polygon.
	for i := 1; i+1 < len(screen); i++ {
		*out = append(*out, Triangle{
			V:                 [3]ScreenVertex{screen[0], screen[i], screen[i+1]},
			CountsAsTraversed: i == 1,
			FrontFacing:       front,
		})
	}
	return resultTraversed
}

// refClipPolygon clips a convex polygon against the six frustum planes in
// homogeneous space.
func refClipPolygon(in []ShadedVertex) []ShadedVertex {
	planes := gmath.FrustumPlanes()
	poly := in
	for _, pl := range planes {
		if len(poly) == 0 {
			return nil
		}
		var next []ShadedVertex
		for i := range poly {
			cur := &poly[i]
			prev := &poly[(i+len(poly)-1)%len(poly)]
			dc := pl.Dist(cur.ClipPos)
			dp := pl.Dist(prev.ClipPos)
			if dp >= 0 != (dc >= 0) {
				// Edge crosses the plane: add intersection.
				t := dp / (dp - dc)
				next = append(next, lerpVertex(prev, cur, t))
			}
			if dc >= 0 {
				next = append(next, *cur)
			}
		}
		poly = next
	}
	return poly
}
