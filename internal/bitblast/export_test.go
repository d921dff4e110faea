package bitblast

// GateCacheLen is the number of gates in the blaster's structural gate
// cache.
func (b *Blaster) GateCacheLen() int { return len(b.gates.m) }
