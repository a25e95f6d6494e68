package core

import (
	"gpuchar/internal/gfxapi"
	"gpuchar/internal/stats"
	"gpuchar/internal/workloads"
)

// APIResult is the API-level characterization of one demo: the per-frame
// records plus derived averages matching the paper's Tables III, IV, V
// and XII and Figures 1-3 and 8.
type APIResult struct {
	Prof   *workloads.Profile
	Frames []gfxapi.FrameStats
}

// AvgIndicesPerFrame returns the Table III indices-per-frame average.
func (r *APIResult) AvgIndicesPerFrame() float64 {
	var m stats.Mean
	for _, f := range r.Frames {
		m.Add(float64(f.Indices))
	}
	return m.Value()
}

// AvgIndicesPerBatch returns the Table III indices-per-batch average.
func (r *APIResult) AvgIndicesPerBatch() float64 {
	var idx, batches int64
	for _, f := range r.Frames {
		idx += f.Indices
		batches += f.Batches
	}
	if batches == 0 {
		return 0
	}
	return float64(idx) / float64(batches)
}

// IndexBWAt100FPS returns the Table III bandwidth projection in MB/s.
func (r *APIResult) IndexBWAt100FPS() float64 {
	var m stats.Mean
	for _, f := range r.Frames {
		m.Add(float64(f.IndexBytes))
	}
	return m.Value() * 100 / (1024 * 1024)
}

// AvgVSInstr returns the Table IV vertex shader instruction average over
// the full run (or the [from,to) frame region for Oblivion's split).
func (r *APIResult) AvgVSInstr(from, to int) float64 {
	if to <= 0 || to > len(r.Frames) {
		to = len(r.Frames)
	}
	var wsum, w float64
	for _, f := range r.Frames[from:to] {
		wsum += f.VSInstrWeighted
		w += f.WeightVertices
	}
	if w == 0 {
		return 0
	}
	return wsum / w
}

// AvgFSInstr returns the Table XII fragment program instruction average.
func (r *APIResult) AvgFSInstr() float64 {
	var wsum, w float64
	for _, f := range r.Frames {
		wsum += f.FSInstrWeighted
		w += f.WeightVertices
	}
	if w == 0 {
		return 0
	}
	return wsum / w
}

// AvgFSTex returns the Table XII texture instruction average.
func (r *APIResult) AvgFSTex() float64 {
	var wsum, w float64
	for _, f := range r.Frames {
		wsum += f.FSTexWeighted
		w += f.WeightVertices
	}
	if w == 0 {
		return 0
	}
	return wsum / w
}

// ALUTexRatio returns the Table XII (total-tex)/tex balance ratio.
func (r *APIResult) ALUTexRatio() float64 {
	tex := r.AvgFSTex()
	if tex == 0 {
		return 0
	}
	return (r.AvgFSInstr() - tex) / tex
}

// PrimMixPct returns the Table V per-primitive index share in percent.
func (r *APIResult) PrimMixPct() [3]float64 {
	var byPrim [3]int64
	var total int64
	for _, f := range r.Frames {
		for i := 0; i < 3; i++ {
			byPrim[i] += f.IndicesByPrim[i]
			total += f.IndicesByPrim[i]
		}
	}
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = 100 * stats.Ratio(byPrim[i], total)
	}
	return out
}

// AvgPrimitives returns the Table V primitives-per-frame average.
func (r *APIResult) AvgPrimitives() float64 {
	var m stats.Mean
	for _, f := range r.Frames {
		m.Add(float64(f.Primitives))
	}
	return m.Value()
}

// BatchesSeries returns the Figure 1 per-frame batch counts.
func (r *APIResult) BatchesSeries() *stats.Series {
	s := stats.NewSeries(r.Prof.Name)
	for _, f := range r.Frames {
		s.Append(float64(f.Batches))
	}
	return s
}

// IndexMBSeries returns the Figure 2 per-frame index megabytes.
func (r *APIResult) IndexMBSeries() *stats.Series {
	s := stats.NewSeries(r.Prof.Name)
	for _, f := range r.Frames {
		s.Append(float64(f.IndexBytes) / (1024 * 1024))
	}
	return s
}

// StateCallsSeries returns the Figure 3 per-frame state call counts.
func (r *APIResult) StateCallsSeries() *stats.Series {
	s := stats.NewSeries(r.Prof.Name)
	for _, f := range r.Frames {
		s.Append(float64(f.StateCalls))
	}
	return s
}

// FSInstrSeries returns the Figure 8 per-frame fragment instruction
// averages; the companion texture series comes from FSTexSeries.
func (r *APIResult) FSInstrSeries() *stats.Series {
	s := stats.NewSeries(r.Prof.Name + " instructions")
	for _, f := range r.Frames {
		s.Append(f.AvgFSInstr())
	}
	return s
}

// FSTexSeries returns the Figure 8 per-frame texture instruction
// averages.
func (r *APIResult) FSTexSeries() *stats.Series {
	s := stats.NewSeries(r.Prof.Name + " texture")
	for _, f := range r.Frames {
		s.Append(f.AvgFSTex())
	}
	return s
}
