//! Huffman-X compression pipeline (paper Algorithm 2 / Fig. 6):
//!
//! ```text
//! Histogram(Global) → Sort → Filter → GenCodebook(Global)
//!   → Encode(Locality) → Serialize(Global)
//! ```
//!
//! The encoded stream is chunked: every `chunk_elems` symbols start at a
//! recorded bit offset, so decoding parallelizes across chunks (the
//! coarse-grained scheme of Tian et al.'s GPU Huffman, ref \[40\]).

use crate::codebook::{Codebook, TwoLevelTable};
use hpdr_core::{ByteReader, ByteWriter, DeviceAdapter, HpdrError, KernelClass, Locality, Result};
use hpdr_kernels::bitstream::BitReader;
use hpdr_kernels::{histogram_u32, histogram_u8};

const MAGIC: u32 = 0x4855_4631; // "HUF1"

mod private {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u8 {}
}

/// Symbol types the Huffman pipeline consumes directly (sealed: `u32` and
/// `u8`). The byte instantiation lets [`compress_bytes`] encode raw byte
/// streams without materializing a 4×-larger `u32` key vector, while both
/// instantiations share the exact container format and packing loop — the
/// emitted bytes for equal symbol sequences are identical.
pub trait HuffKey: Copy + Send + Sync + private::Sealed + 'static {
    fn as_u32(self) -> u32;
    fn from_u32(v: u32) -> Self;
    /// Device histogram over `0..dict`: `(freqs, overflow_count)`.
    fn histogram(adapter: &dyn DeviceAdapter, keys: &[Self], dict: usize) -> (Vec<u64>, u64);
    /// `Σ lens[key]` through the SIMD dispatch table (keys ≥ `lens.len()`
    /// clamp to the last slot; valid inputs never reach it).
    fn bits_sum(keys: &[Self], lens: &[u32]) -> u64;
    /// Write a multi-symbol L1 entry's three symbols to `out[..3]` in as
    /// few stores as the width allows; `out[3]` may be overwritten too.
    #[doc(hidden)]
    fn put_symbols(out: &mut [Self; 4], entry: u64);
}

impl HuffKey for u32 {
    fn as_u32(self) -> u32 {
        self
    }
    fn from_u32(v: u32) -> u32 {
        v
    }
    fn histogram(adapter: &dyn DeviceAdapter, keys: &[u32], dict: usize) -> (Vec<u64>, u64) {
        histogram_u32(adapter, keys, dict)
    }
    fn bits_sum(keys: &[u32], lens: &[u32]) -> u64 {
        (hpdr_kernels::kernels().code_bits_sum)(keys, lens)
    }
    fn put_symbols(out: &mut [u32; 4], entry: u64) {
        for (k, slot) in (0..3).zip(out) {
            *slot = TwoLevelTable::entry_symbol(entry, k);
        }
    }
}

impl HuffKey for u8 {
    fn as_u32(self) -> u32 {
        self as u32
    }
    fn from_u32(v: u32) -> u8 {
        v as u8
    }
    fn histogram(adapter: &dyn DeviceAdapter, keys: &[u8], dict: usize) -> (Vec<u64>, u64) {
        let h = histogram_u8(adapter, keys);
        if dict >= 256 {
            let mut freqs = h;
            freqs.resize(dict, 0);
            (freqs, 0)
        } else {
            let overflow = h[dict..].iter().sum();
            (h[..dict].to_vec(), overflow)
        }
    }
    fn bits_sum(keys: &[u8], lens: &[u32]) -> u64 {
        (hpdr_kernels::kernels().byte_bits_sum)(keys, lens)
    }
    fn put_symbols(out: &mut [u8; 4], entry: u64) {
        // Byte symbols are the low bytes of the entry's 16-bit fields at
        // bits 16, 32 and 48: one 4-byte store.
        let bytes = entry >> 16 & 0xFF | entry >> 24 & 0xFF00 | entry >> 32 & 0xFF_0000;
        *out = (bytes as u32).to_le_bytes();
    }
}

/// Huffman-X configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HuffmanConfig {
    /// Dictionary size: symbols must lie in `0..dict_size`.
    pub dict_size: u32,
    /// Symbols per decode chunk (decode parallelism granularity).
    pub chunk_elems: usize,
}

impl Default for HuffmanConfig {
    fn default() -> Self {
        HuffmanConfig {
            dict_size: 4096,
            chunk_elems: 1 << 16,
        }
    }
}

/// Compress a symbol stream. All `keys` must be `< cfg.dict_size`.
pub fn compress_u32(
    adapter: &dyn DeviceAdapter,
    keys: &[u32],
    cfg: &HuffmanConfig,
) -> Result<Vec<u8>> {
    compress_keys(adapter, keys, cfg)
}

/// Compress a raw byte stream (`dict_size` must be ≤ 256 for the symbols
/// to be representable, typically exactly 256). Produces a byte-identical
/// container to [`compress_u32`] over the widened keys, without the 4×
/// `u32` key materialization.
pub fn compress_bytes(
    adapter: &dyn DeviceAdapter,
    bytes: &[u8],
    cfg: &HuffmanConfig,
) -> Result<Vec<u8>> {
    compress_keys(adapter, bytes, cfg)
}

/// Shared compression pipeline over any [`HuffKey`] symbol type.
pub fn compress_keys<K: HuffKey>(
    adapter: &dyn DeviceAdapter,
    keys: &[K],
    cfg: &HuffmanConfig,
) -> Result<Vec<u8>> {
    if cfg.dict_size == 0 {
        return Err(HpdrError::invalid("dict_size must be positive"));
    }
    // Alg. 2 line 2: Global histogram.
    let (freqs, overflow) = K::histogram(adapter, keys, cfg.dict_size as usize);
    if overflow > 0 {
        return Err(HpdrError::invalid(format!(
            "{overflow} symbols outside dictionary of {}",
            cfg.dict_size
        )));
    }
    // Lines 3–5: sort, filter, two-phase codebook generation.
    let book = Codebook::from_frequencies(&freqs)?;

    // Lines 6–7, fused: instead of materializing a `(bits, len)` pair per
    // element, scanning all n lengths, and atomically OR-packing, each
    // decode chunk (a) counts its encoded bits, then — after a host-side
    // byte-rounding scan of the chunk sizes — (b) re-encodes directly
    // into its own disjoint byte range with a local 64-bit accumulator.
    // Byte-aligning every chunk start costs ≤ 7 pad bits per chunk and
    // makes the packing ranges disjoint, so no atomics are needed and the
    // bytes are adapter-independent by construction.
    let n = keys.len();
    let chunk = cfg.chunk_elems.max(1);
    let num_chunks = n.div_ceil(chunk);

    // Stage A (Locality): per-chunk encoded bit counts, summed by the
    // SIMD-dispatched gather kernel over a dense code-length table.
    let tables = EncodeTables::new(&book, cfg.dict_size);
    let mut chunk_bits = vec![0u64; num_chunks];
    if n > 0 {
        let bits_sh = hpdr_core::SharedSlice::new(&mut chunk_bits);
        Locality::new(num_chunks).run(adapter, &|c, _| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let bits = K::bits_sum(&keys[lo..hi], &tables.lens);
            // Safety: one writer per chunk index.
            unsafe { bits_sh.write(c, bits) };
        });
    }

    // Host scan: byte-aligned chunk starts (the chunk table doubles as
    // the parallel-decode seek table).
    let mut chunk_offsets = Vec::with_capacity(num_chunks);
    let mut cursor = 0u64; // bits; always a multiple of 8
    let mut total_bits = 0u64;
    for &bits in &chunk_bits {
        chunk_offsets.push(cursor);
        total_bits = cursor + bits;
        cursor = total_bits.div_ceil(8) * 8;
    }

    // Stage B (Locality): pack each chunk into its disjoint byte range.
    let mut payload = vec![0u8; (cursor / 8) as usize];
    if n > 0 {
        let payload_sh = hpdr_core::SharedSlice::new(&mut payload);
        Locality::new(num_chunks).run(adapter, &|c, _| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            let base = (chunk_offsets[c] / 8) as usize;
            let nbytes = chunk_bits[c].div_ceil(8) as usize;
            // Safety: chunk byte ranges are disjoint — each chunk starts
            // on the byte after its predecessor's last data byte.
            let dst = unsafe { payload_sh.slice_mut(base, nbytes) };
            pack_chunk(&keys[lo..hi], &tables, dst);
        });
    }

    // Charge the whole Huffman kernel once against the device cost model.
    adapter.charge(KernelClass::Huffman, (n * 4) as u64);

    // Container.
    let mut w = ByteWriter::with_capacity(payload.len() + 64);
    w.put_u32(MAGIC);
    w.put_u32(cfg.dict_size);
    w.put_u64(n as u64);
    w.put_u64(chunk as u64);
    w.put_u64(total_bits);
    let pairs = book.length_pairs();
    w.put_u32(pairs.len() as u32);
    for (sym, len) in pairs {
        w.put_u32(sym);
        w.put_u8(len as u8);
    }
    w.put_u32(chunk_offsets.len() as u32);
    for off in chunk_offsets {
        w.put_u64(off);
    }
    w.put_block(&payload);
    Ok(w.into_vec())
}

/// The encoder's dense per-symbol tables over `0..dict_size`, filled
/// from the coded pairs (the dictionary size here is the caller's
/// configuration, not stream input).
struct EncodeTables {
    /// Code length per symbol (0 = not coded), for the bit-count stage.
    lens: Vec<u32>,
    /// `bits_rev | len << 56` per symbol; just `bits_rev` when the book
    /// is deeper than 56 bits.
    words: Vec<u64>,
    /// Symbols per unconditional 8-byte store, ⌊56 / max_len⌋; 0 when
    /// the book is deeper than 56 bits.
    group: usize,
}

impl EncodeTables {
    fn new(book: &Codebook, dict_size: u32) -> EncodeTables {
        let group = 56 / book.max_len().max(1) as usize;
        let mut lens = vec![0u32; dict_size as usize];
        let mut words = vec![0u64; dict_size as usize];
        for (sym, code) in book.codes() {
            lens[sym as usize] = code.len;
            let len_field = if group > 0 {
                u64::from(code.len) << 56
            } else {
                0
            };
            words[sym as usize] = code.bits_rev | len_field;
        }
        EncodeTables { lens, words, group }
    }
}

const LOW56: u64 = (1 << 56) - 1;

/// The packer's position: `nacc` pending bits in `acc` belong at byte
/// `wpos` of the chunk, and `keys[..k]` are packed.
#[derive(Default)]
struct PackState {
    acc: u64,
    nacc: u32,
    wpos: usize,
    k: usize,
}

/// The branchless loop of [`pack_chunk`] over groups of `G` codes.
fn pack_groups<K: HuffKey, const G: usize>(
    keys: &[K],
    t: &EncodeTables,
    dst: &mut [u8],
    st: &mut PackState,
) {
    let PackState {
        mut acc,
        mut nacc,
        mut wpos,
        mut k,
    } = *st;
    for group in keys.chunks_exact(G) {
        if wpos + 8 > dst.len() {
            break;
        }
        for &key in group {
            let word = t.words[key.as_u32() as usize];
            acc |= (word & LOW56) << nacc;
            nacc += (word >> 56) as u32;
        }
        k += G;
        dst[wpos..wpos + 8].copy_from_slice(&acc.to_le_bytes());
        // nacc ≤ 7 + 56, so fewer than 8 whole bytes were written.
        let whole = nacc / 8;
        wpos += whole as usize;
        acc >>= whole * 8;
        nacc %= 8;
    }
    *st = PackState { acc, nacc, wpos, k };
}

/// Pack `keys`' codes LSB-first into `dst`, which holds exactly their
/// bits rounded up to whole bytes.
///
/// Branchless fast loop: after each store at most 7 bits are pending, so
/// `group` codes of at most 56 bits each fit the 64-bit accumulator
/// without a flush test. They are ORed in, all 8 accumulator bytes are
/// stored unconditionally, and the cursor advances by the whole bytes
/// written. The bytes past them are rewritten by later stores. The loop
/// runs while 8 bytes fit in `dst`; the reference loop below finishes
/// the chunk, and packs books deeper than 56 bits on its own.
fn pack_chunk<K: HuffKey>(keys: &[K], t: &EncodeTables, dst: &mut [u8]) {
    let mut st = PackState::default();
    // A smaller group is always sound; fixed sizes unroll the group loop.
    match t.group {
        0 => {}
        1 => pack_groups::<K, 1>(keys, t, dst, &mut st),
        2 => pack_groups::<K, 2>(keys, t, dst, &mut st),
        3 => pack_groups::<K, 3>(keys, t, dst, &mut st),
        4 => pack_groups::<K, 4>(keys, t, dst, &mut st),
        5 => pack_groups::<K, 5>(keys, t, dst, &mut st),
        6 | 7 => pack_groups::<K, 6>(keys, t, dst, &mut st),
        _ => pack_groups::<K, 8>(keys, t, dst, &mut st),
    }
    let PackState {
        mut acc,
        mut nacc,
        mut wpos,
        k,
    } = st;
    let mask = if t.group > 0 { LOW56 } else { u64::MAX };
    for &key in &keys[k..] {
        let sym = key.as_u32() as usize;
        let (bits, len) = (t.words[sym] & mask, t.lens[sym]);
        debug_assert!(len > 0, "uncoded symbol in input");
        let spill = if nacc == 0 { 0 } else { bits >> (64 - nacc) };
        acc |= bits << nacc;
        nacc += len;
        if nacc >= 64 {
            dst[wpos..wpos + 8].copy_from_slice(&acc.to_le_bytes());
            wpos += 8;
            nacc -= 64;
            acc = spill;
        }
    }
    let tail = acc.to_le_bytes();
    let tail_bytes = nacc.div_ceil(8) as usize;
    dst[wpos..wpos + tail_bytes].copy_from_slice(&tail[..tail_bytes]);
    debug_assert_eq!(wpos + tail_bytes, dst.len());
}

/// Decompress a Huffman-X stream produced by [`compress_u32`].
pub fn decompress_u32(adapter: &dyn DeviceAdapter, bytes: &[u8]) -> Result<Vec<u32>> {
    decompress_keys::<u32>(adapter, bytes, u32::MAX)
}

/// Decompress a Huffman-X stream into bytes. Rejects streams whose
/// dictionary exceeds 256 (their symbols would not fit in a byte).
pub fn decompress_bytes(adapter: &dyn DeviceAdapter, bytes: &[u8]) -> Result<Vec<u8>> {
    decompress_keys::<u8>(adapter, bytes, 256)
}

/// The dictionary size a Huffman-X stream records in its header.
/// Containers that embed a stream and keep their own copy of the size
/// check the two against each other.
pub fn stream_dict_size(bytes: &[u8]) -> Result<u32> {
    let mut r = ByteReader::new(bytes);
    if r.get_u32()? != MAGIC {
        return Err(HpdrError::corrupt("bad Huffman magic"));
    }
    r.get_u32()
}

/// A Huffman-X container whose header passed every check.
struct Stream<'a> {
    n: usize,
    chunk: usize,
    total_bits: u64,
    book: Codebook,
    chunk_offsets: Vec<u64>,
    payload: &'a [u8],
}

/// Parse and check a container; `max_dict` bounds the dictionary size
/// representable in the output symbol type.
fn parse_stream(bytes: &[u8], max_dict: u32) -> Result<Stream<'_>> {
    let dict_size = stream_dict_size(bytes)?;
    let mut r = ByteReader::new(&bytes[8..]);
    if dict_size > max_dict {
        return Err(HpdrError::invalid(format!(
            "dictionary of {dict_size} does not fit the requested symbol width"
        )));
    }
    let n = r.get_u64()? as usize;
    let chunk = r.get_u64()? as usize;
    let total_bits = r.get_u64()?;
    if chunk == 0 {
        return Err(HpdrError::corrupt("zero chunk size"));
    }
    // Each code pair is a u32 symbol and a u8 length.
    let num_pairs = r.get_count_u32(5)?;
    if num_pairs > dict_size as usize {
        return Err(HpdrError::corrupt("more codes than dictionary entries"));
    }
    let mut pairs = Vec::with_capacity(num_pairs);
    for _ in 0..num_pairs {
        let sym = r.get_u32()?;
        let len = r.get_u8()? as u32;
        pairs.push((sym, len));
    }
    let book = Codebook::from_lengths(dict_size, &pairs)?;
    let num_chunks = r.get_count_u32(8)?;
    let expected_chunks = n.div_ceil(chunk);
    if num_chunks != expected_chunks {
        return Err(HpdrError::corrupt(format!(
            "chunk table has {num_chunks} entries, expected {expected_chunks}"
        )));
    }
    let mut chunk_offsets = Vec::with_capacity(num_chunks);
    for _ in 0..num_chunks {
        chunk_offsets.push(r.get_u64()?);
    }
    let payload = r.get_block()?;
    r.expect_exhausted()?;
    if total_bits > payload.len() as u64 * 8 {
        return Err(HpdrError::corrupt(
            "payload shorter than declared bit length",
        ));
    }
    // Every codeword is at least one bit, so this bounds the output
    // allocation by the input size.
    if n as u64 > total_bits {
        return Err(HpdrError::corrupt("more symbols than coded bits"));
    }
    Ok(Stream {
        n,
        chunk,
        total_bits,
        book,
        chunk_offsets,
        payload,
    })
}

/// Shared decompression pipeline; `max_dict` bounds the dictionary size
/// representable in `K`.
fn decompress_keys<K: HuffKey>(
    adapter: &dyn DeviceAdapter,
    bytes: &[u8],
    max_dict: u32,
) -> Result<Vec<K>> {
    let s = parse_stream(bytes, max_dict)?;
    let n = s.n;
    if n == 0 {
        return Ok(Vec::new());
    }

    // Locality groups of two adjacent chunks, decoded in lock-step; a
    // lone last chunk runs one lane. Any codeword error inside a worker
    // is collected and surfaced after the join.
    let table = s.book.two_level_table(12);
    let lanes = LaneDecoder::new(&s, &table);
    let mut out = vec![K::from_u32(0); n];
    let errors = std::sync::Mutex::new(Vec::new());
    {
        let out_sh = hpdr_core::SharedSlice::new(&mut out);
        let num_chunks = s.chunk_offsets.len();
        Locality::new(num_chunks.div_ceil(2)).run(adapter, &|g, _| {
            let (c, lo) = (2 * g, 2 * g * s.chunk);
            let mid = lo.saturating_add(s.chunk).min(n);
            let hi = mid.saturating_add(s.chunk).min(n);
            // SAFETY: group `g` alone owns `out[lo..hi]` (its two chunks,
            // and the groups partition `0..n`), and `hi <= n` keeps the
            // range in bounds.
            let dst = unsafe { out_sh.slice_mut(lo, hi - lo) };
            let (first, second) = dst.split_at_mut(mid - lo);
            let result = match s.chunk_offsets.get(c + 1) {
                Some(&next) => lanes.run_pair([s.chunk_offsets[c], next], first, second),
                None => lanes.run_one(s.chunk_offsets[c], first),
            };
            if let Err(e) = result {
                errors.lock().unwrap().push(e);
            }
        });
    }
    if let Some(e) = errors.into_inner().unwrap().into_iter().next() {
        return Err(e);
    }
    adapter.charge(KernelClass::Huffman, (n * 4) as u64);
    Ok(out)
}

/// One chunk's decode state: the next bit to read and the next slot of
/// the chunk's output.
#[derive(Debug, Clone, Copy)]
struct Lane {
    pos: u64,
    i: usize,
}

/// The fast decode loop, shared by one- and two-lane chunk groups.
///
/// A *block* loads the 8 bytes holding a lane's next bit and runs
/// `probes = ⌊57 / probe_span⌋` probes on them. The first probe starts at
/// most 7 bits in and each consumes at most `probe_span` bits, so every
/// probe's bits were loaded, and no probe tests a bound. A block runs
/// only while the lane's 64-bit window lies inside `total_bits` and its
/// chunk has room for `room` more symbols, the most its probes can write.
/// A probe that misses both table levels leaves the lane where it is, so
/// the block's later probes miss again, and the codeword is decoded with
/// the canonical window scan after the block. A lane that cannot run a
/// whole block finishes in [`decode_checked`].
struct LaneDecoder<'s, 'p> {
    s: &'s Stream<'p>,
    table: &'s TwoLevelTable,
    probes: usize,
    /// Output slots one block may write: four per multi-symbol probe.
    room: usize,
}

impl<'s, 'p> LaneDecoder<'s, 'p> {
    fn new(s: &'s Stream<'p>, table: &'s TwoLevelTable) -> Self {
        let probes = (57 / table.probe_span()) as usize;
        // A multi-symbol probe writes four slots and keeps up to three.
        let per_probe = if table.is_multi() { 4 } else { 1 };
        LaneDecoder {
            s,
            table,
            probes,
            room: probes * per_probe,
        }
    }

    /// Decode the chunk starting at bit `start` into `dst`, alone.
    fn run_one<K: HuffKey>(&self, start: u64, dst: &mut [K]) -> Result<()> {
        let a = Lane { pos: start, i: 0 };
        if self.table.is_multi() {
            self.finish::<K, true>(a, dst)
        } else {
            self.finish::<K, false>(a, dst)
        }
    }

    /// Decode two chunks, starting at bits `starts`, in lock-step.
    fn run_pair<K: HuffKey>(&self, starts: [u64; 2], da: &mut [K], db: &mut [K]) -> Result<()> {
        let a = Lane {
            pos: starts[0],
            i: 0,
        };
        let b = Lane {
            pos: starts[1],
            i: 0,
        };
        if self.table.is_multi() {
            self.pair::<K, true>(a, da, b, db)
        } else {
            self.pair::<K, false>(a, da, b, db)
        }
    }

    /// Two lanes in lock-step: their probes interleave, so each lane's
    /// dependent shift → probe → add chain overlaps the other's.
    fn pair<K: HuffKey, const MULTI: bool>(
        &self,
        mut a: Lane,
        da: &mut [K],
        mut b: Lane,
        db: &mut [K],
    ) -> Result<()> {
        let l1 = self.table.l1_entries();
        while self.block_fits(a, da.len()) && self.block_fits(b, db.len()) {
            let (wa, base_a, mut shift_a) = self.load(a.pos);
            let (wb, base_b, mut shift_b) = self.load(b.pos);
            let (mut missed_a, mut missed_b) = (false, false);
            for _ in 0..self.probes {
                self.probe::<K, MULTI>(l1, wa, &mut shift_a, da, &mut a.i, &mut missed_a);
                self.probe::<K, MULTI>(l1, wb, &mut shift_b, db, &mut b.i, &mut missed_b);
            }
            a.pos = base_a + u64::from(shift_a);
            b.pos = base_b + u64::from(shift_b);
            if missed_a {
                self.resolve_miss(&mut a, da)?;
            }
            if missed_b {
                self.resolve_miss(&mut b, db)?;
            }
        }
        self.finish::<K, MULTI>(a, da)?;
        self.finish::<K, MULTI>(b, db)
    }

    /// One lane: blocks while they fit, then the checked loop.
    fn finish<K: HuffKey, const MULTI: bool>(&self, mut a: Lane, dst: &mut [K]) -> Result<()> {
        let l1 = self.table.l1_entries();
        while self.block_fits(a, dst.len()) {
            let (w, base, mut shift) = self.load(a.pos);
            let mut missed = false;
            for _ in 0..self.probes {
                self.probe::<K, MULTI>(l1, w, &mut shift, dst, &mut a.i, &mut missed);
            }
            a.pos = base + u64::from(shift);
            if missed {
                self.resolve_miss(&mut a, dst)?;
            }
        }
        decode_checked(self.s, self.table, a.pos, &mut dst[a.i..])
    }

    /// Whether the whole 64-bit window at `pos` lies inside the stream.
    fn in_window(&self, pos: u64) -> bool {
        pos.checked_add(64)
            .is_some_and(|end| end <= self.s.total_bits)
    }

    #[inline(always)]
    fn block_fits(&self, a: Lane, len: usize) -> bool {
        self.in_window(a.pos) && len - a.i >= self.room
    }

    /// The 8 payload bytes holding bit `pos`: `(window, their first bit,
    /// pos's offset in them)`. In bounds while `in_window(pos)`.
    #[inline(always)]
    fn load(&self, pos: u64) -> (u64, u64, u32) {
        let base = (pos / 8) as usize;
        let bytes = &self.s.payload[base..base + 8];
        let w = u64::from_le_bytes(bytes.try_into().expect("slice of 8 bytes"));
        (w, pos & !7, (pos % 8) as u32)
    }

    /// One probe of the window `w >> shift` into the L1 entries `l1`.
    #[inline(always)]
    fn probe<K: HuffKey, const MULTI: bool>(
        &self,
        l1: &[u64],
        w: u64,
        shift: &mut u32,
        dst: &mut [K],
        i: &mut usize,
        missed: &mut bool,
    ) {
        let window = w >> *shift;
        let e = l1[window as usize & (l1.len() - 1)];
        let bits = TwoLevelTable::entry_bits(e);
        if bits != 0 {
            if MULTI {
                let out: &mut [K; 4] = (&mut dst[*i..*i + 4]).try_into().expect("4 slots");
                K::put_symbols(out, e);
                *i += TwoLevelTable::entry_count(e);
            } else {
                dst[*i] = K::from_u32((e >> 32) as u32);
                *i += 1;
            }
            *shift += bits;
        } else if let Some((sym, len)) = self.table.decode_l2(e, window) {
            dst[*i] = K::from_u32(sym);
            *i += 1;
            *shift += len;
        } else {
            *missed = true;
        }
    }

    /// Decode the codeword a block stopped at with the canonical scan
    /// over a full in-stream window; outside the last whole window the
    /// checked loop decodes it.
    fn resolve_miss<K: HuffKey>(&self, a: &mut Lane, dst: &mut [K]) -> Result<()> {
        if !self.in_window(a.pos) {
            return Ok(());
        }
        let mut br = BitReader::with_bit_limit(self.s.payload, self.s.total_bits)?;
        br.seek(a.pos)?;
        let (sym, used) = self.s.book.decode_window(br.peek_padded())?;
        dst[a.i] = K::from_u32(sym);
        a.i += 1;
        a.pos += u64::from(used);
        Ok(())
    }
}

/// Decode `dst.len()` symbols starting at bit `start` of the payload:
/// the checked loop a lane finishes in. Each symbol takes one zero-padded
/// window, and its codeword must end inside `total_bits`.
fn decode_checked<K: HuffKey>(
    s: &Stream<'_>,
    table: &TwoLevelTable,
    start: u64,
    dst: &mut [K],
) -> Result<()> {
    let mut br = BitReader::with_bit_limit(s.payload, s.total_bits)?;
    br.seek(start)?;
    for slot in dst {
        let at = br.bit_pos();
        let window = br.peek_padded();
        let (sym, used) = match table.decode(window) {
            Some(hit) => hit,
            None => s.book.decode_window(window)?,
        };
        // Zero padding past the end could complete a truncated codeword.
        if u64::from(used) > br.remaining_bits() {
            return Err(HpdrError::corrupt("codeword extends past end of stream"));
        }
        br.seek(at + u64::from(used))?;
        *slot = K::from_u32(sym);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_core::{CpuParallelAdapter, SerialAdapter};

    fn roundtrip(keys: &[u32], cfg: &HuffmanConfig) {
        let a = CpuParallelAdapter::new(4);
        let compressed = compress_u32(&a, keys, cfg).unwrap();
        let out = decompress_u32(&a, &compressed).unwrap();
        assert_eq!(out, keys);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn roundtrip_skewed_distribution() {
        let keys: Vec<u32> = (0..100_000u32)
            .map(|i| {
                // Geometric-ish skew around 2048 (a quantizer's zero bin).
                let r = i.wrapping_mul(2654435761) >> 16;
                2048 + (r % 64) * if i % 2 == 0 { 1 } else { 0 }
            })
            .collect();
        roundtrip(&keys, &HuffmanConfig::default());
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn roundtrip_uniform_and_tiny() {
        let cfg = HuffmanConfig {
            dict_size: 257,
            chunk_elems: 100,
        };
        let keys: Vec<u32> = (0..10_000u32).map(|i| i % 257).collect();
        roundtrip(&keys, &cfg);
        roundtrip(&[0], &cfg);
        roundtrip(&[5, 5, 5, 5], &cfg);
        roundtrip(&[], &cfg);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn serial_and_parallel_streams_identical() {
        // Portability: the bytes must not depend on the adapter.
        let keys: Vec<u32> = (0..50_000u32).map(|i| (i * 7) % 300).collect();
        let cfg = HuffmanConfig::default();
        let serial = compress_u32(&SerialAdapter::new(), &keys, &cfg).unwrap();
        let parallel = compress_u32(&CpuParallelAdapter::new(8), &keys, &cfg).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn cross_adapter_decode() {
        let keys: Vec<u32> = (0..20_000u32).map(|i| (i * 31) % 1000).collect();
        let cfg = HuffmanConfig::default();
        let stream = compress_u32(&CpuParallelAdapter::new(4), &keys, &cfg).unwrap();
        let out = decompress_u32(&SerialAdapter::new(), &stream).unwrap();
        assert_eq!(out, keys);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn compresses_skewed_data() {
        let a = SerialAdapter::new();
        let keys = vec![7u32; 100_000]; // maximally skewed
        let stream = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        // 100k symbols at ~1 bit ≈ 12.5 KB plus headers — far below raw.
        assert!(stream.len() < 20_000, "got {}", stream.len());
    }

    #[test]
    fn out_of_dict_symbol_rejected() {
        let a = SerialAdapter::new();
        let cfg = HuffmanConfig {
            dict_size: 16,
            chunk_elems: 8,
        };
        assert!(compress_u32(&a, &[3, 99], &cfg).is_err());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let a = SerialAdapter::new();
        let keys: Vec<u32> = (0..1000u32).map(|i| i % 50).collect();
        let good = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        // Truncations at every length must return Err, never panic.
        for cut in [0, 1, 4, 10, good.len() / 2, good.len() - 1] {
            assert!(decompress_u32(&a, &good[..cut]).is_err(), "cut={cut}");
        }
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decompress_u32(&a, &bad).is_err());
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn byte_path_is_stream_identical_to_u32_path() {
        // The u8 instantiation must emit the exact bytes of the widened
        // u32 instantiation — same histogram, same codebook, same packing.
        let a = CpuParallelAdapter::new(4);
        let bytes: Vec<u8> = (0..60_000usize)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for dict in [256u32, 300, 100] {
            let cfg = HuffmanConfig {
                dict_size: dict,
                chunk_elems: 1 << 12,
            };
            let keys: Vec<u32> = bytes.iter().map(|&b| b as u32).collect();
            let via_u32 = compress_u32(&a, &keys, &cfg);
            let via_u8 = compress_bytes(&a, &bytes, &cfg);
            match (via_u32, via_u8) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x, y, "dict={dict}");
                    if dict <= 256 {
                        assert_eq!(decompress_bytes(&a, &y).unwrap(), bytes);
                    } else {
                        assert_eq!(decompress_u32(&a, &y).unwrap(), keys);
                    }
                }
                (Err(_), Err(_)) => {} // both reject out-of-dict symbols
                (x, y) => panic!("paths disagree for dict={dict}: {x:?} vs {y:?}"),
            }
        }
    }

    #[test]
    fn symbol_count_beyond_coded_bits_is_corrupt() {
        let a = SerialAdapter::new();
        let keys: Vec<u32> = (0..100u32).map(|i| i % 7).collect();
        let mut stream = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        // Symbol count and chunk size (bytes 8..24) set to 2^40: still one
        // chunk, so only the bit-length bound stops a 4 TiB output.
        for at in [8, 16] {
            stream[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        }
        assert!(matches!(
            decompress_u32(&a, &stream),
            Err(HpdrError::CorruptStream(_))
        ));
    }

    #[test]
    fn byte_decode_rejects_wide_dictionaries() {
        let a = SerialAdapter::new();
        let keys = vec![300u32, 2, 3];
        let stream = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        assert!(decompress_bytes(&a, &stream).is_err());
    }

    /// The bit-at-a-time oracle: each chunk decoded with
    /// [`Codebook::decode_one`] from single-bit reads bounded by
    /// `total_bits`.
    fn decompress_reference<K: HuffKey>(bytes: &[u8], max_dict: u32) -> Result<Vec<K>> {
        let s = parse_stream(bytes, max_dict)?;
        let mut out = Vec::with_capacity(s.n);
        for (c, &start) in s.chunk_offsets.iter().enumerate() {
            let lo = c * s.chunk;
            let hi = (lo + s.chunk).min(s.n);
            let mut br = BitReader::with_bit_limit(s.payload, s.total_bits)?;
            br.seek(start)?;
            for _ in lo..hi {
                out.push(K::from_u32(s.book.decode_one(|| br.read_bit())?));
            }
        }
        Ok(out)
    }

    /// The one-lane loop the lanes replaced, one codeword per probe: one
    /// unaligned 8-byte load serves every symbol until fewer than
    /// `max_hit` unread bits remain in it. A table miss decodes that one
    /// symbol with the canonical scan over a full in-stream window, and
    /// the stream's last 64 bits go through [`decode_checked`].
    fn decode_window_loop<K: HuffKey>(
        s: &Stream<'_>,
        table: &TwoLevelTable,
        start: u64,
        dst: &mut [K],
    ) -> Result<()> {
        let mut br = BitReader::with_bit_limit(s.payload, s.total_bits)?;
        let last_window = s.total_bits.checked_sub(64);
        let in_window = |pos: u64| last_window.is_some_and(|last| pos <= last);
        let max_hit = table.max_hit();
        let mut pos = start;
        let mut i = 0;
        while i < dst.len() && in_window(pos) {
            let base = (pos / 8) as usize;
            let bytes = &s.payload[base..base + 8];
            let w = u64::from_le_bytes(bytes.try_into().expect("slice of 8 bytes"));
            let mut shift = (pos % 8) as u32;
            let mut missed = false;
            while i < dst.len() && shift + max_hit <= 64 {
                match table.decode(w >> shift) {
                    Some((sym, len)) => {
                        dst[i] = K::from_u32(sym);
                        i += 1;
                        shift += len;
                    }
                    None => {
                        missed = true;
                        break;
                    }
                }
            }
            pos = base as u64 * 8 + u64::from(shift);
            if missed {
                if !in_window(pos) {
                    break;
                }
                br.seek(pos)?;
                let (sym, used) = s.book.decode_window(br.peek_padded())?;
                dst[i] = K::from_u32(sym);
                i += 1;
                pos += u64::from(used);
            }
        }
        if i == dst.len() {
            return Ok(());
        }
        decode_checked(s, table, pos, &mut dst[i..])
    }

    /// Every chunk from its first symbol through [`decode_window_loop`].
    fn decompress_one_lane<K: HuffKey>(bytes: &[u8], max_dict: u32) -> Result<Vec<K>> {
        let s = parse_stream(bytes, max_dict)?;
        let table = s.book.two_level_table(12);
        let mut out = vec![K::from_u32(0); s.n];
        for (c, &start) in s.chunk_offsets.iter().enumerate() {
            let lo = c * s.chunk;
            let hi = (lo + s.chunk).min(s.n);
            decode_window_loop(&s, &table, start, &mut out[lo..hi])?;
        }
        Ok(out)
    }

    /// The packing loop the branchless packer replaced, over `book`.
    fn pack_reference(keys: &[u32], book: &Codebook, dst: &mut [u8]) {
        let codes: std::collections::HashMap<u32, crate::Code> = book.codes().collect();
        let mut acc = 0u64;
        let mut nacc = 0u32;
        let mut wpos = 0usize;
        for k in keys {
            let code = codes[k];
            let spill = if nacc == 0 {
                0
            } else {
                code.bits_rev >> (64 - nacc)
            };
            acc |= code.bits_rev << nacc;
            nacc += code.len;
            if nacc >= 64 {
                dst[wpos..wpos + 8].copy_from_slice(&acc.to_le_bytes());
                wpos += 8;
                nacc -= 64;
                acc = spill;
            }
        }
        let tail = acc.to_le_bytes();
        let mut rem = nacc;
        let mut bi = 0usize;
        while rem > 0 {
            dst[wpos] = tail[bi];
            wpos += 1;
            bi += 1;
            rem = rem.saturating_sub(8);
        }
    }

    /// A container over `keys` with the canonical book of `pairs`, laid
    /// out as [`compress_keys`] lays it out (byte-aligned chunk starts).
    /// Unlike the encoder it takes any book, so codes can be deeper than
    /// any test input could make them.
    fn container(dict: u32, pairs: &[(u32, u32)], keys: &[u32], chunk: usize) -> Vec<u8> {
        use hpdr_kernels::BitWriter;
        let book = Codebook::from_lengths(dict, pairs).unwrap();
        let codes: std::collections::HashMap<u32, crate::Code> = book.codes().collect();
        let mut bits = BitWriter::new();
        let mut offsets = Vec::new();
        let mut total_bits = 0;
        for part in keys.chunks(chunk) {
            bits.write_bits(0, ((8 - bits.bit_len() % 8) % 8) as u32);
            offsets.push(bits.bit_len());
            for k in part {
                bits.write_bits(codes[k].bits_rev, codes[k].len);
            }
            total_bits = bits.bit_len();
        }
        let mut w = ByteWriter::new();
        w.put_u32(MAGIC);
        w.put_u32(dict);
        w.put_u64(keys.len() as u64);
        w.put_u64(chunk as u64);
        w.put_u64(total_bits);
        let pairs = book.length_pairs();
        w.put_u32(pairs.len() as u32);
        for (sym, len) in pairs {
            w.put_u32(sym);
            w.put_u8(len as u8);
        }
        w.put_u32(offsets.len() as u32);
        for off in offsets {
            w.put_u64(off);
        }
        w.put_block(&bits.into_bytes());
        w.into_vec()
    }

    /// Xorshift draws in `0..m` (0 for `m == 0`).
    fn xorshift(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed | 1;
        move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m.max(1)
        }
    }

    /// Lengths 1, 2, …, k − 1, k − 1: a complete book whose deepest codes
    /// escape both table levels once k > 25, and are deeper than the
    /// packer's 56-bit groups once k > 57.
    fn fibonacci_pairs(k: u32) -> Vec<(u32, u32)> {
        (0..k).map(|s| (s, (s + 1).min(k - 1))).collect()
    }

    /// A random book: `(dict_size, pairs)`, frequency-built over one of
    /// the codecs' dictionary sizes (past 2^16, symbols may need 17
    /// bits), geometric, Fibonacci-deep, or incomplete.
    fn random_book(rng: &mut impl FnMut(u64) -> u64) -> (u32, Vec<(u32, u32)>) {
        let (dict, mut pairs) = match rng(4) {
            0 => {
                let dict = [2, 256, 4096, 8192, 70_000, 1 + rng(300) as u32][rng(6) as usize];
                // Sparse for wide dictionaries: a few hundred coded symbols.
                let coded = (dict as u64).min(300);
                let mut freqs = vec![0u64; dict as usize];
                for _ in 0..coded {
                    freqs[rng(dict as u64) as usize] += rng(3) * rng(1000);
                }
                let pairs = Codebook::from_frequencies(&freqs).unwrap().length_pairs();
                (dict, pairs)
            }
            1 => {
                let dict = 1 + rng(64) as u32;
                let freqs: Vec<u64> = (0..dict).map(|_| 1 << rng(40)).collect();
                let pairs = Codebook::from_frequencies(&freqs).unwrap().length_pairs();
                (dict, pairs)
            }
            2 => {
                let k = 2 + rng(63) as u32;
                (k, fibonacci_pairs(k))
            }
            _ => {
                // Incomplete: some codes of a complete book never assigned.
                let dict = 2 + rng(40) as u32;
                let freqs: Vec<u64> = (0..dict).map(|_| 1 + rng(50)).collect();
                let mut pairs = Codebook::from_frequencies(&freqs).unwrap().length_pairs();
                pairs.retain(|_| rng(3) != 0);
                (dict, pairs)
            }
        };
        if pairs.is_empty() {
            pairs.push((0, 1));
        }
        pairs.sort_unstable();
        (dict, pairs)
    }

    /// `n` keys drawn from the book's coded symbols.
    fn random_keys(rng: &mut impl FnMut(u64) -> u64, pairs: &[(u32, u32)], n: usize) -> Vec<u32> {
        (0..n)
            .map(|_| pairs[rng(pairs.len() as u64) as usize].0)
            .collect()
    }

    /// One random case: a random book, keys over its coded symbols, a
    /// chunk size, and damage (none, lowered `total_bits`, flipped
    /// payload bytes, both).
    fn random_case(seed: u64) -> (Vec<u8>, u32) {
        let mut rng = xorshift(seed);
        let (dict, pairs) = random_book(&mut rng);
        let n = rng(1500) as usize;
        let keys = random_keys(&mut rng, &pairs, n);
        let chunk = if rng(4) == 0 {
            1 << 16
        } else {
            1 + rng(300) as usize
        };
        let mut bytes = container(dict, &pairs, &keys, chunk);
        damage(&mut rng, &mut bytes);
        (bytes, dict)
    }

    /// Lower `total_bits`, flip payload bits, both, or neither.
    fn damage(rng: &mut impl FnMut(u64) -> u64, bytes: &mut [u8]) {
        let damage = rng(4);
        if damage & 1 == 1 {
            let total = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
            let lowered = total.saturating_sub(1 + rng(80));
            bytes[24..32].copy_from_slice(&lowered.to_le_bytes());
        }
        let payload_len = parse_stream(bytes, u32::MAX).map_or(0, |s| s.payload.len());
        if damage & 2 == 2 && payload_len > 0 {
            let at = bytes.len() - payload_len;
            for _ in 0..1 + rng(3) {
                let i = at + rng(payload_len as u64) as usize;
                bytes[i] ^= 1 << rng(8);
            }
        }
    }

    /// The lane decoder, the one-lane loop and the bit-at-a-time
    /// `oracle` agree on `Ok`/`Err` and on every symbol.
    fn agree_with<K: HuffKey + PartialEq + std::fmt::Debug>(
        adapter: &dyn DeviceAdapter,
        bytes: &[u8],
        max_dict: u32,
        oracle: &Result<Vec<K>>,
    ) -> std::result::Result<(), String> {
        let lanes = decompress_keys::<K>(adapter, bytes, max_dict);
        let one_lane = decompress_one_lane::<K>(bytes, max_dict);
        match (&lanes, &one_lane, oracle) {
            (Ok(a), Ok(b), Ok(c)) if a == b && b == c => Ok(()),
            (Err(_), Err(_), Err(_)) => Ok(()),
            _ => Err(format!(
                "lanes {lanes:?} vs one lane {one_lane:?} vs oracle {oracle:?}"
            )),
        }
    }

    /// [`agree_with`] on the serial and the 2-thread adapter, for `u32`
    /// keys and, when the dictionary fits, `u8` keys.
    fn agree_everywhere(bytes: &[u8], dict: u32) -> std::result::Result<(), String> {
        let serial = SerialAdapter::new();
        let two = CpuParallelAdapter::new(2);
        let oracle = decompress_reference::<u32>(bytes, u32::MAX);
        let narrow = oracle
            .as_ref()
            .map(|keys| keys.iter().map(|&k| k as u8).collect())
            .map_err(Clone::clone);
        for a in [&serial as &dyn DeviceAdapter, &two] {
            agree_with(a, bytes, u32::MAX, &oracle).map_err(|e| format!("u32 keys: {e}"))?;
            if dict <= 256 {
                agree_with(a, bytes, 256, &narrow).map_err(|e| format!("u8 keys: {e}"))?;
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(
            if cfg!(miri) { 4 } else { 400 }
        ))]
        #[test]
        fn window_decoder_matches_bitwise_oracle(
            seed in proptest::prelude::any::<u64>()
        ) {
            let (bytes, dict) = random_case(seed);
            let verdict = agree_everywhere(&bytes, dict);
            proptest::prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }

        #[test]
        fn packer_matches_reference_loop(seed in proptest::prelude::any::<u64>()) {
            let mut rng = xorshift(seed);
            let (dict, pairs) = random_book(&mut rng);
            let n = rng(if cfg!(miri) { 40 } else { 1500 }) as usize;
            let keys = random_keys(&mut rng, &pairs, n);
            let verdict = packs_like_reference(dict, &pairs, &keys);
            proptest::prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
        }
    }

    /// [`pack_chunk`] and [`pack_reference`] write the same bytes.
    fn packs_like_reference(
        dict: u32,
        pairs: &[(u32, u32)],
        keys: &[u32],
    ) -> std::result::Result<(), String> {
        let book = Codebook::from_lengths(dict, pairs).unwrap();
        let tables = EncodeTables::new(&book, dict);
        let bits: u64 = keys
            .iter()
            .map(|&k| u64::from(tables.lens[k as usize]))
            .sum();
        let mut fast = vec![0xA5u8; bits.div_ceil(8) as usize];
        let mut reference = vec![0u8; fast.len()];
        pack_chunk(keys, &tables, &mut fast);
        pack_reference(keys, &book, &mut reference);
        if fast == reference {
            Ok(())
        } else {
            Err(format!(
                "max_len {} over {} keys: {fast:?} vs {reference:?}",
                book.max_len(),
                keys.len()
            ))
        }
    }

    #[test]
    fn packer_edge_cases_match_reference_loop() {
        let mut rng = xorshift(29);
        // Empty input, and a one-symbol book (one-bit codes, 56 per store).
        packs_like_reference(4, &[(3, 1)], &[]).unwrap();
        for n in [1, 7, 56, 57, 200] {
            packs_like_reference(4, &[(3, 1)], &vec![3; n]).unwrap();
        }
        // Books whose deepest code is 56 bits (one symbol per store) and
        // 57 bits (the reference loop alone).
        for k in [57, 58] {
            let pairs = fibonacci_pairs(k);
            for n in [0, 1, 3, 40] {
                let mut keys = random_keys(&mut rng, &pairs, n);
                keys.push(k - 1);
                packs_like_reference(k, &pairs, &keys).unwrap();
            }
        }
        // Chunks shorter than 8 bytes never take the fast loop.
        let pairs = Codebook::from_frequencies(&[5, 1, 1, 3])
            .unwrap()
            .length_pairs();
        for n in 0..30 {
            packs_like_reference(4, &pairs, &random_keys(&mut rng, &pairs, n)).unwrap();
        }
    }

    #[test]
    fn two_threads_decode_an_odd_chunk_count_in_two_lanes() {
        // Three chunks of 40 short codes: one pair in lock-step and one
        // lone lane, each running multi-symbol blocks before its tail.
        let freqs = [40u64, 20, 10, 5, 3, 2];
        let pairs = Codebook::from_frequencies(&freqs).unwrap().length_pairs();
        let mut rng = xorshift(3);
        let keys = random_keys(&mut rng, &pairs, 120);
        let bytes = container(6, &pairs, &keys, 40);
        let two = CpuParallelAdapter::new(2);
        assert_eq!(decompress_u32(&two, &bytes).unwrap(), keys);
        agree_everywhere(&bytes, 6).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn lanes_match_oracles_over_chunk_sizes_and_dictionaries() {
        // Chunk sizes 1, 300 and 2^16 at 1, 2, 3 and 5 chunks, over books
        // of every kind: frequency-built at each dictionary size (past
        // 2^16 with 17-bit symbols), geometric, Fibonacci-deep past 56
        // bits, and incomplete.
        let mut rng = xorshift(17);
        let mut books: Vec<(u32, Vec<(u32, u32)>)> = Vec::new();
        for dict in [2u32, 256, 4096, 8192, 70_000] {
            let mut freqs = vec![0u64; dict as usize];
            for _ in 0..300 {
                freqs[rng(u64::from(dict)) as usize] += 1 + rng(1000);
            }
            freqs[dict as usize - 1] += 1;
            books.push((
                dict,
                Codebook::from_frequencies(&freqs).unwrap().length_pairs(),
            ));
        }
        let geometric: Vec<u64> = (0..40).map(|i| 1 << (i % 36)).collect();
        books.push((
            40,
            Codebook::from_frequencies(&geometric)
                .unwrap()
                .length_pairs(),
        ));
        books.push((62, fibonacci_pairs(62)));
        let mut incomplete = books[2].1.clone();
        incomplete.retain(|_| rng(3) != 0);
        books.push((4096, incomplete));
        for (b, (dict, pairs)) in books.iter().enumerate() {
            // 2^16-symbol chunks on the 8192 and the 70000 dictionaries.
            let sizes: &[usize] = if b == 3 || b == 4 {
                &[1, 300, 1 << 16]
            } else {
                &[1, 300]
            };
            for &chunk in sizes {
                for chunks in [1, 2, 3, 5] {
                    let last = 1 + rng(chunk.min(2000) as u64) as usize;
                    let n = (chunks - 1) * chunk + last;
                    let keys = random_keys(&mut rng, pairs, n);
                    let mut bytes = container(*dict, pairs, &keys, chunk);
                    let two = CpuParallelAdapter::new(2);
                    assert_eq!(decompress_u32(&two, &bytes).unwrap(), keys);
                    agree_everywhere(&bytes, *dict).unwrap();
                    damage(&mut rng, &mut bytes);
                    agree_everywhere(&bytes, *dict).unwrap();
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn test_container_matches_encoder_bytes() {
        // The oracle's container builder lays bytes out as the encoder
        // does, so the proptest's streams are the encoder's streams.
        let a = SerialAdapter::new();
        let keys: Vec<u32> = (0..5000u32).map(|i| (i * i + 7 * i) % 97).collect();
        for chunk_elems in [1, 77, 1 << 16] {
            let cfg = HuffmanConfig {
                dict_size: 97,
                chunk_elems,
            };
            let encoded = compress_u32(&a, &keys, &cfg).unwrap();
            let pairs = parse_stream(&encoded, u32::MAX)
                .unwrap()
                .book
                .length_pairs();
            assert_eq!(container(97, &pairs, &keys, chunk_elems), encoded);
        }
    }

    #[test]
    fn deep_codeword_cut_by_the_stream_end_is_an_error() {
        // 190 one-bit codes, then a 39-bit code that misses both table
        // levels, with `total_bits` lowered to keep only 34 of its bits.
        // The window loaded at bit 149 reaches the deep code at bit 190,
        // where fewer than 64 stream bits remain. Its first 34 bits, zero
        // padded, read as a 35-bit code: only the bound on the bits that
        // remain rejects it.
        let pairs: Vec<(u32, u32)> = (0..40u32).map(|s| (s, (s + 1).min(39))).collect();
        let mut keys = vec![0u32; 190];
        keys.push(39);
        let mut bytes = container(40, &pairs, &keys, 1 << 16);
        assert_eq!(&bytes[24..32], &229u64.to_le_bytes());
        bytes[24..32].copy_from_slice(&224u64.to_le_bytes());
        let a = SerialAdapter::new();
        assert!(decompress_reference::<u32>(&bytes, u32::MAX).is_err());
        assert!(matches!(
            decompress_u32(&a, &bytes),
            Err(HpdrError::CorruptStream(_))
        ));
    }

    #[test]
    fn parallel_decode_of_a_deep_book_matches_oracle() {
        // Two workers over many short chunks of a Fibonacci-deep book.
        let pairs: Vec<(u32, u32)> = (0..40u32).map(|s| (s, (s + 1).min(39))).collect();
        let keys: Vec<u32> = (0..3000u32).map(|i| (i * 7919) % 40).collect();
        let bytes = container(40, &pairs, &keys, 37);
        let a = CpuParallelAdapter::new(2);
        assert_eq!(decompress_u32(&a, &bytes).unwrap(), keys);
        assert_eq!(decompress_reference::<u32>(&bytes, u32::MAX).unwrap(), keys);
        assert_eq!(decompress_bytes(&a, &bytes).unwrap().len(), keys.len());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let a = SerialAdapter::new();
        let keys = vec![1u32, 2, 3];
        let mut stream = compress_u32(&a, &keys, &HuffmanConfig::default()).unwrap();
        stream.push(0xAB);
        assert!(decompress_u32(&a, &stream).is_err());
    }
}
