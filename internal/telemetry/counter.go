package telemetry

import (
	"sort"
	"strconv"
	"strings"
)

// Counters use string keys of the form "<base>_<dim>=<value>" (built by
// DimKey) in snapshots, e.g. "chunks_cache=ram" or "sessions_pop=00003";
// numeric dimension values are zero-padded so lexicographic key order
// matches numeric order and JSON output (sorted keys) is stable. On the
// record path an Accumulator counts under counterKey instead and builds
// these strings only when it materializes a snapshot.

// counterFamily names one counter base and dimension.
type counterFamily uint8

const (
	famPlain         counterFamily = iota // undimensioned; str is the counter name
	famSessionsPoP                        // sessions_pop=<num>
	famSessionsOrg                        // sessions_org=<str>
	famChunksPoP                          // chunks_pop=<num>
	famChunksCache                        // chunks_cache=<str>
	famChunksBitrate                      // chunks_bitrate=<num>
	famChunksHitPoP                       // chunks_hit_pop=<num>
	// famFamily+i tags the dimensioned counters of an accumulator's i-th
	// optional family, which names them itself.
	famFamily
)

// counterKey identifies one counter without building its string: the
// family plus the record's own dimension value — an int for numeric
// dimensions (and the window index for window families), or a string the
// record already holds (cache level, org, diagnosis label, counter name).
// Counting under it allocates nothing once the key exists.
type counterKey struct {
	fam counterFamily
	num int
	str string
}

// plainKey is the key of an undimensioned counter.
func plainKey(name string) counterKey { return counterKey{fam: famPlain, str: name} }

// DimKey builds the canonical dimensioned-counter key "<base>_<dim>=<value>".
func DimKey(base, dim, value string) string { return base + "_" + dim + "=" + value }

// IntDimKey is DimKey for integer dimension values, zero-padded to five
// digits so sorted keys are in numeric order. The value renders exactly as
// fmt's "%05d" does: the sign counts toward the width and precedes the
// padding.
func IntDimKey(base, dim string, value int) string {
	var buf [64]byte
	b := append(buf[:0], base...)
	b = append(b, '_')
	b = append(b, dim...)
	b = append(b, '=')
	u := uint64(value)
	if value < 0 {
		b = append(b, '-')
		u = -u
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	width := 5
	if value < 0 {
		width--
	}
	for n := width - len(d); n > 0; n-- {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// DimCount is one (dimension value, count) row extracted from a counter
// map.
type DimCount struct {
	Value string
	N     uint64
}

// IntValue parses the dimension value as an integer (zero-padded values
// from IntDimKey parse cleanly). It returns -1 if the value is not
// numeric.
func (d DimCount) IntValue() int {
	v, err := strconv.Atoi(d.Value)
	if err != nil {
		return -1
	}
	return v
}

// CountersByDim extracts every counter of the form "<base>_<dim>=<value>"
// from a counter map, sorted by value so the output order is
// deterministic.
func CountersByDim(counters map[string]uint64, base, dim string) []DimCount {
	prefix := base + "_" + dim + "="
	var out []DimCount
	for k, n := range counters {
		if v, ok := strings.CutPrefix(k, prefix); ok {
			out = append(out, DimCount{Value: v, N: n})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}
