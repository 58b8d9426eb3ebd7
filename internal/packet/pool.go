package packet

// Pool is a per-node packet free-list: the NIFDY unit recycles consumed
// acks and dropped duplicates through it, and the processor recycles
// retired deliveries, so the saturated data path allocates no packets in
// steady state.
//
// A packet crosses node boundaries between birth and death, so the pool a
// packet returns to is usually not the one it came from; that is fine — a
// free-list needs no affinity, and under the synthetic workloads every node
// both sends and receives, so pools stay balanced. Pools are not
// synchronized: all components of one simulation share an engine shard (the
// production configuration), which serializes every Get/Put.
//
// Get performs a full field reset, so a recycled packet is indistinguishable
// from a fresh zero-value one (Dialog at NoDialog, everything else zero).
// Skipping the reset would be a correctness trap: stale dialog, sequence, or
// grant bits from the packet's previous life would silently corrupt the
// protocol. The reset happens on Get rather than Put so that even packets
// that entered the pool by unusual paths come out clean.
//
// The zero value is ready to use. All methods are nil-safe: a nil *Pool
// degrades to plain allocation with no recycling, so pooling stays optional
// at every call site.
type Pool struct {
	free []*Packet

	gets, puts, news int64
}

// blank is the canonical freshly-allocated packet state.
var blank = Packet{Dialog: NoDialog}

// Get returns a fully reset packet, recycling a pooled one when available.
//
//lint:allow(hotalloc) pool warm-up: new packets are minted only while the free-list is empty; steady state recycles
func (pl *Pool) Get() *Packet {
	if pl == nil {
		p := new(Packet)
		p.Dialog = NoDialog
		return p
	}
	pl.gets++
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = blank
		return p
	}
	pl.news++
	p := new(Packet)
	p.Dialog = NoDialog
	return p
}

// Put returns p to the free-list. The caller must hold the last live
// reference: no flit of p may remain in any link, buffer, or queue, and no
// retained copy may be consulted through this pointer later. Put(nil) is a
// no-op.
//
//lint:allow(hotalloc) amortized free-list growth up to the simulation's live-packet high-water mark
func (pl *Pool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	pl.puts++
	pl.free = append(pl.free, p)
}

// ForEachFree calls f on every pooled (dead) packet. The invariant monitors
// use it for recycle-safety audits: no pooled pointer may also be reachable
// from a live queue, buffer, or in-flight flit. Nil-safe like every method.
func (pl *Pool) ForEachFree(f func(*Packet)) {
	if pl == nil {
		return
	}
	for _, p := range pl.free {
		f(p)
	}
}

// Size reports the packets currently pooled.
func (pl *Pool) Size() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}

// Stats reports lifetime counters: Get calls, Put calls, and Gets that had
// to allocate because the pool was empty (recycling hit rate = 1 - news/gets).
func (pl *Pool) Stats() (gets, puts, news int64) {
	if pl == nil {
		return 0, 0, 0
	}
	return pl.gets, pl.puts, pl.news
}
