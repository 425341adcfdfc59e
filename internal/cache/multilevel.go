package cache

// Level identifies where a lookup was satisfied in the multi-level cache.
type Level int

// Lookup outcomes, ordered fastest to slowest.
const (
	LevelRAM  Level = iota // served from main memory
	LevelDisk              // served from local disk (incurs the read/retry delay)
	LevelMiss              // not resident; must be fetched from the backend
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelRAM:
		return "ram"
	case LevelDisk:
		return "disk"
	case LevelMiss:
		return "miss"
	}
	return "unknown"
}

// MultiLevel composes a small RAM cache over a large disk cache, matching
// the ATS layout the paper describes ("multi-level ... between the main
// memory and the local disk ... with an LRU replacement policy"). A disk
// hit promotes the object into RAM; a backend fill writes both levels.
type MultiLevel struct {
	RAM  Policy
	Disk Policy
}

// NewMultiLevel builds a two-level cache with the given policies.
func NewMultiLevel(ram, disk Policy) *MultiLevel {
	return &MultiLevel{RAM: ram, Disk: disk}
}

// Lookup finds key, performs the disk→RAM promotion, and returns where
// the object was found. size is used for the promotion insert.
func (m *MultiLevel) Lookup(key uint64, size int64) Level {
	if m.RAM.Get(key) {
		return LevelRAM
	}
	if m.Disk.Get(key) {
		m.RAM.Put(key, size) // promote
		return LevelDisk
	}
	return LevelMiss
}

// Insert admits a backend-fetched object into both levels.
func (m *MultiLevel) Insert(key uint64, size int64) {
	m.Disk.Put(key, size)
	m.RAM.Put(key, size)
}

// Contains reports residency at either level without side effects.
func (m *MultiLevel) Contains(key uint64) bool {
	return m.RAM.Contains(key) || m.Disk.Contains(key)
}

// Resize changes both levels' capacities (shrinking evicts in each
// level's policy order). Timed cache-degradation phases use it to shrink
// a serving cache mid-campaign and restore it afterwards.
func (m *MultiLevel) Resize(ramBytes, diskBytes int64) {
	m.RAM.Resize(ramBytes)
	m.Disk.Resize(diskBytes)
}
