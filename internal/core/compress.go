package core

import (
	"dqo/internal/props"
	"dqo/internal/storage"
)

// Helpers bridging storage segment encodings into the optimiser's property
// space. The compressed granule builders (scanPlan with an encoding and
// encFilterPlan, granules.go) gate on and cost from exact zone-map metadata
// via these; every planning tier reaches the twins through those builders.

// encCompression maps a storage encoding onto the compression property
// dimension the paper names (props.Compression).
func encCompression(e storage.Encoding) props.Compression {
	switch e {
	case storage.EncDictRLE:
		return props.RLECompression
	case storage.EncBitPack:
		return props.BitPackCompression
	case storage.EncFoR:
		return props.FoRCompression
	default:
		return props.NoCompression
	}
}

// relCompression returns the compression property of the first encoded
// column, or NoCompression when the relation is stored plain — the gate for
// enumerating a compressed-scan granule twin.
func relCompression(rel *storage.Relation) props.Compression {
	for _, c := range rel.Columns() {
		if e := c.Encoding(); e != storage.EncNone {
			return encCompression(e)
		}
	}
	return props.NoCompression
}

// encBounds converts predRange's half-open uint64 [lo, hi) onto the
// inclusive uint32 bounds the segment kernels compare in. ok is false when
// the range is empty or entirely above the uint32 domain.
func encBounds(lo, hi uint64) (plo, phi uint32, ok bool) {
	if hi <= lo || lo >= 1<<32 {
		return 0, 0, false
	}
	if hi > 1<<32 {
		hi = 1 << 32
	}
	return uint32(lo), uint32(hi - 1), true
}

// encFilterTarget resolves a range predicate against an encoded uint32
// column of rel: the encoded payload, the compression property, and the
// zone-map census for the inclusive bounds. ok is false when the column is
// missing, not a plain uint32 column, or stored undecoded.
func encFilterTarget(rel *storage.Relation, col string, plo, phi uint32) (enc props.Compression, skipped, total, work int, ok bool) {
	c, have := rel.Column(col)
	if !have || c.Kind() != storage.KindUint32 {
		return props.NoCompression, 0, 0, 0, false
	}
	p, _, _, isEnc := c.EncodedView()
	if !isEnc {
		return props.NoCompression, 0, 0, 0, false
	}
	skip, full, partial, w := p.PredStats(plo, phi)
	return encCompression(p.Encoding()), skip, skip + full + partial, w, true
}
