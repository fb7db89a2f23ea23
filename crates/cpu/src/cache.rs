//! Trace-driven cache simulator used for the Fig. 5 characterization.
//!
//! Restructuring ops stream multi-megabyte batches through a cache
//! hierarchy sized for locality (paper testbed: 32 KB L1I/L1D, 1 MB
//! L2), so data misses are massive while the instruction working set
//! fits L1I. We reproduce this by generating a synthetic address trace
//! from an op's [`OpProfile`] and running it through set-associative
//! LRU caches.

use dmx_restructure::OpProfile;

/// Sentinel for "no line touched yet": a line number is an address
/// shifted right by the line bits, so it can never be all ones.
const NO_LINE: u64 = u64::MAX;

/// One set-associative, LRU, write-allocate cache level.
///
/// Tags live in one flat array, `ways` slots per set, least recently
/// used first; `lens[s]` counts the filled slots of set `s`. Two
/// early-outs skip the search without changing any state, both resting
/// on one invariant: a touched line becomes the most recently used
/// (MRU) line of its set, and only a later touch of the same set can
/// demote it. So touching the line touched last is a hit that leaves
/// every set as it was, and so is touching a set's MRU tag.
#[derive(Debug, Clone)]
pub struct Cache {
    tags: Vec<u64>,
    lens: Vec<u32>,
    ways: usize,
    line_bits: u32,
    set_bits: u32,
    set_mask: u64,
    last_line: u64,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache of `capacity` bytes, `ways`-associative, with
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless `capacity / (ways * 64)` is a nonzero power of two.
    pub fn new(capacity: usize, ways: usize) -> Cache {
        let line = 64;
        let n_sets = capacity / (ways * line);
        assert!(
            n_sets > 0 && n_sets.is_power_of_two(),
            "set count must be a nonzero power of two"
        );
        Cache {
            tags: vec![0; n_sets * ways],
            lens: vec![0; n_sets],
            ways,
            line_bits: 6,
            set_bits: n_sets.trailing_zeros(),
            set_mask: n_sets as u64 - 1,
            last_line: NO_LINE,
            accesses: 0,
            misses: 0,
        }
    }

    /// Makes `addr`'s line the MRU line of its set, evicting the LRU
    /// line of a full set on a miss; returns `true` on hit. Inlined so
    /// the last-line early-out costs one compare at the call site.
    #[inline]
    fn touch(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_bits;
        line == self.last_line || self.touch_set(line)
    }

    /// [`Self::touch`] for a line other than the one touched last.
    fn touch_set(&mut self, line: u64) -> bool {
        self.last_line = line;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        let len = self.lens[set] as usize;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        if len > 0 && ways[len - 1] == tag {
            return true;
        }
        if len < ways.len() {
            if let Some(pos) = ways[..len].iter().rposition(|&t| t == tag) {
                ways.copy_within(pos + 1..len, pos);
                ways[len - 1] = tag;
                return true;
            }
            ways[len] = tag;
            self.lens[set] += 1;
            return false;
        }
        // A full set: one pass from the MRU end puts `tag` last and
        // moves each older tag down a slot until it meets `tag` (a hit)
        // or pushes the LRU tag out of slot 0 (a miss).
        let mut carry = tag;
        for slot in ways.iter_mut().rev() {
            let t = std::mem::replace(slot, carry);
            if t == tag {
                return true;
            }
            carry = t;
        }
        false
    }

    /// Accesses an address; returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let hit = self.touch(addr);
        if !hit {
            self.misses += 1;
        }
        hit
    }

    /// Installs a line without counting an access (hardware prefetch).
    #[inline]
    pub fn install(&mut self, addr: u64) {
        self.touch(addr);
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 when never accessed).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// MPKI report for one op (the quantities Sec. IV.A cites).
#[derive(Debug, Clone, PartialEq)]
pub struct MpkiReport {
    /// Instruction-cache misses per kilo-instruction.
    pub l1i_mpki: f64,
    /// L1 data-cache misses per kilo-instruction.
    pub l1d_mpki: f64,
    /// L2 misses per kilo-instruction.
    pub l2_mpki: f64,
    /// Instructions simulated (scaled to the full op).
    pub instructions: u64,
}

/// Cache hierarchy configuration (testbed Xeon: Sec. IV.A cites the
/// 1 MB L2 explicitly).
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// L1 instruction cache bytes.
    pub l1i_bytes: usize,
    /// L1 data cache bytes.
    pub l1d_bytes: usize,
    /// Unified L2 bytes.
    pub l2_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            l1i_bytes: 32 << 10,
            l1d_bytes: 32 << 10,
            l2_bytes: 1 << 20,
        }
    }
}

/// AVX instructions per byte moved for a vectorized restructuring loop:
/// per 32-byte vector chunk, roughly a load, an op or two, a store and
/// loop bookkeeping amortized by unrolling.
fn instrs_per_byte(profile: &OpProfile) -> f64 {
    let base = 8.0 / 32.0; // ~8 instructions per 32 B chunk
                           // Irregular (gathered) elements need scalar address math.
    base * (1.0 + 3.0 * profile.irregular) + profile.branch_per_kb / 1024.0
}

/// Simulates an op's access trace and reports MPKI.
///
/// The trace is sampled: at most `max_bytes` of the op's stream is
/// simulated (the pattern is periodic, so MPKI converges quickly).
pub fn characterize(profile: &OpProfile, config: &CacheConfig, max_bytes: u64) -> MpkiReport {
    let mut l1i = Cache::new(config.l1i_bytes, 8);
    let mut l1d = Cache::new(config.l1d_bytes, 8);
    let mut l2 = Cache::new(config.l2_bytes, 16);

    // Instruction working set: a small loop body (restructuring
    // kernels fit in L1I — Sec. IV.A) plus occasional excursions into
    // runtime/library code that keep L1I misses nonzero.
    let loop_body_bytes: u64 = 3 << 10;
    let runtime_bytes: u64 = 256 << 10;
    let ipb = instrs_per_byte(profile);

    let elem: u64 = 32; // one vector chunk
                        // Simulate a fixed trace window; small working sets loop within it
                        // (amortizing cold misses), large ones stream through it.
    let steps = (max_bytes / elem).max(1);
    let in_span = profile.input_bytes.max(elem);
    let out_span = profile.output_bytes.max(elem);
    let scratch_span = profile.scratch_bytes.max(elem);
    // Address bases far apart so streams do not alias.
    let in_base = 0u64;
    let out_base = 1 << 34;
    let scratch_base = 1 << 35;
    let stack_base = 1 << 36;

    let mut instret = 0u64;
    let mut pc = 0u64;
    let mut rng: u64 = 0x2545F491_4F6CDD1D;
    let next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let extra_passes = (profile.stream_passes - 2.0).max(0.0);

    // Step i's offset into each stream, (i * elem) % span, carried from
    // step to step: every span is at least one element, so one
    // conditional subtraction wraps it.
    let (mut rd_off, mut wr_off, mut sc_off) = (0u64, 0u64, 0u64);
    let wrap = |off: u64, span: u64| {
        if off + elem >= span {
            off + elem - span
        } else {
            off + elem
        }
    };

    let mut rng2 = next;
    for i in 0..steps {
        // Instruction fetches for this chunk's worth of instructions.
        let n_instr = (ipb * elem as f64).ceil() as u64;
        for _ in 0..n_instr {
            // pc stays a multiple of 8 below the loop size, so this is
            // (pc + 8) % loop_body_bytes without the division.
            pc += 8;
            if pc == loop_body_bytes {
                pc = 0;
            }
            // ~0.2% of fetches leave the loop (libc, allocator, MKL
            // dispatch) — the source of the residual ~2 L1I MPKI.
            let addr = if rng2() % 512 == 0 {
                (1 << 40) + (rng2() % runtime_bytes)
            } else {
                (1 << 41) + pc
            };
            l1i.access(addr);
            instret += 1;
        }
        // Data: streaming read, streaming write, optional scratch
        // re-traversals and irregular accesses.
        // The L2 next-line prefetcher hides roughly every other miss
        // of a sequential stream.
        let data = |l1d: &mut Cache, l2: &mut Cache, addr: u64, sequential: bool| {
            if !l1d.access(addr) && !l2.access(addr) && sequential {
                l2.install(addr + 64);
            }
        };
        let rd = in_base + rd_off;
        data(&mut l1d, &mut l2, rd, true);
        // Write-allocate: a store miss also fetches the line.
        let wr = out_base + wr_off;
        data(&mut l1d, &mut l2, wr, true);
        if extra_passes > 0.0
            && (i as f64 * extra_passes) as u64 != ((i + 1) as f64 * extra_passes) as u64
        {
            let sc = scratch_base + sc_off;
            data(&mut l1d, &mut l2, sc, true);
        }
        if profile.irregular > 0.0 && rng2() % 1000 < (profile.irregular * 1000.0) as u64 {
            let g = scratch_base + (rng2() % scratch_span.max(in_span));
            data(&mut l1d, &mut l2, g, false);
        }
        // A few stack/bookkeeping accesses that always hit.
        let st = stack_base + (rng2() % 512);
        data(&mut l1d, &mut l2, st, false);
        rd_off = wrap(rd_off, in_span);
        wr_off = wrap(wr_off, out_span);
        sc_off = wrap(sc_off, scratch_span);
    }

    let ki = (instret as f64 / 1000.0).max(1e-9);
    MpkiReport {
        l1i_mpki: l1i.misses() as f64 / ki,
        l1d_mpki: l1d.misses() as f64 / ki,
        l2_mpki: l2.misses() as f64 / ki,
        instructions: instret,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(mb: u64, passes: f64, irregular: f64, branchy: f64) -> OpProfile {
        OpProfile {
            name: "t".into(),
            input_bytes: mb << 20,
            output_bytes: mb << 20,
            scratch_bytes: (mb << 20) / 2,
            stream_passes: passes,
            ops_per_byte: 1.0,
            branch_per_kb: branchy,
            irregular,
        }
    }

    /// The per-access reference: one `Vec` of tags per set, most recent
    /// last, searched and reordered on every touch.
    struct RefCache {
        sets: Vec<Vec<u64>>,
        ways: usize,
        set_mask: u64,
        accesses: u64,
        misses: u64,
    }

    impl RefCache {
        fn new(capacity: usize, ways: usize) -> RefCache {
            let n_sets = capacity / (ways * 64);
            RefCache {
                sets: vec![Vec::with_capacity(ways); n_sets],
                ways,
                set_mask: n_sets as u64 - 1,
                accesses: 0,
                misses: 0,
            }
        }

        fn touch(&mut self, addr: u64) -> bool {
            let line = addr >> 6;
            let set = (line & self.set_mask) as usize;
            let tag = line >> self.set_mask.count_ones();
            let ways = &mut self.sets[set];
            if let Some(pos) = ways.iter().position(|&t| t == tag) {
                let t = ways.remove(pos);
                ways.push(t);
                return true;
            }
            if ways.len() == self.ways {
                ways.remove(0);
            }
            ways.push(tag);
            false
        }

        fn access(&mut self, addr: u64) -> bool {
            self.accesses += 1;
            let hit = self.touch(addr);
            if !hit {
                self.misses += 1;
            }
            hit
        }
    }

    #[test]
    fn fast_cache_matches_reference_lru() {
        dmx_sim::run_cases("cache::fast_vs_reference", dmx_sim::cases(200), |g| {
            let ways = 1usize << g.u64_in(0, 5);
            let n_sets = 1usize << g.u64_in(0, 7);
            let capacity = n_sets * ways * 64;
            let mut fast = Cache::new(capacity, ways);
            let mut reference = RefCache::new(capacity, ways);
            // A small pool of lines per set, a little over the
            // associativity, so sets conflict and evict; occasional far
            // addresses exercise large tags.
            let tags = ways as u64 + g.u64_in(1, 4);
            let mut addr = 0u64;
            for _ in 0..g.usize_in(0, 3000) {
                if !g.chance(0.3) {
                    addr = if g.chance(0.05) {
                        g.u64_in(0, u64::MAX)
                    } else {
                        let set = g.u64_in(0, n_sets as u64);
                        let tag = g.u64_in(0, tags);
                        ((tag * n_sets as u64 + set) << 6) + g.u64_in(0, 64)
                    };
                }
                if g.chance(0.2) {
                    fast.install(addr);
                    reference.touch(addr);
                } else {
                    assert_eq!(fast.access(addr), reference.access(addr), "{addr:#x}");
                }
            }
            assert_eq!(fast.accesses(), reference.accesses);
            assert_eq!(fast.misses(), reference.misses);
            for (set, want) in reference.sets.iter().enumerate() {
                let len = fast.lens[set] as usize;
                assert_eq!(&fast.tags[set * ways..set * ways + len], &want[..]);
            }
        });
    }

    #[test]
    fn cache_basics() {
        let mut c = Cache::new(1024, 2);
        assert!(!c.access(0)); // cold miss
        assert!(c.access(0)); // hit
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, 8 sets of 64B lines -> lines mapping to set 0 are
        // multiples of 64*8 = 512.
        let mut c = Cache::new(1024, 2);
        c.access(0);
        c.access(512);
        c.access(1024); // evicts line 0
        assert!(!c.access(0), "line 0 must have been evicted");
        assert!(c.access(1024));
    }

    #[test]
    fn streaming_op_matches_paper_bands() {
        // Sec. IV.A: 50-215 L1D MPKI, 25-109 L2 MPKI, ~2.3 L1I MPKI.
        let r = characterize(&profile(8, 3.0, 0.0, 1.0), &CacheConfig::default(), 4 << 20);
        assert!(
            r.l1d_mpki > 50.0 && r.l1d_mpki < 250.0,
            "L1D MPKI {} outside the paper's band",
            r.l1d_mpki
        );
        assert!(
            r.l2_mpki > 20.0 && r.l2_mpki < 120.0,
            "L2 MPKI {} outside the paper's band",
            r.l2_mpki
        );
        assert!(
            r.l1i_mpki > 0.3 && r.l1i_mpki < 8.0,
            "L1I MPKI {} should be small",
            r.l1i_mpki
        );
    }

    #[test]
    fn small_working_set_has_low_data_mpki() {
        let mut p = profile(8, 2.0, 0.0, 1.0);
        p.input_bytes = 64 << 10; // fits L2
        p.output_bytes = 64 << 10;
        p.scratch_bytes = 0;
        let r = characterize(&p, &CacheConfig::default(), 16 << 20);
        let big = characterize(&profile(8, 2.0, 0.0, 1.0), &CacheConfig::default(), 4 << 20);
        assert!(
            r.l2_mpki < big.l2_mpki / 3.0,
            "{} vs {}",
            r.l2_mpki,
            big.l2_mpki
        );
    }

    #[test]
    fn irregular_ops_miss_more() {
        let reg = characterize(&profile(8, 2.0, 0.0, 1.0), &CacheConfig::default(), 2 << 20);
        let irr = characterize(&profile(8, 2.0, 0.9, 1.0), &CacheConfig::default(), 2 << 20);
        assert!(irr.l1d_mpki + 1.0 > reg.l1d_mpki * 0.5);
        assert!(
            irr.instructions > reg.instructions,
            "gathers add address math"
        );
    }

    #[test]
    fn deterministic() {
        let a = characterize(&profile(4, 2.0, 0.2, 3.0), &CacheConfig::default(), 1 << 20);
        let b = characterize(&profile(4, 2.0, 0.2, 3.0), &CacheConfig::default(), 1 << 20);
        assert_eq!(a, b);
    }
}
