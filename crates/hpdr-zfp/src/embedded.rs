//! ZFP's embedded bit-plane coder: group-tested, budgeted encoding of
//! negabinary coefficient planes, MSB→LSB. Faithful port of zfp's
//! `encode_ints` / `decode_ints` control flow, including its behaviour at
//! budget exhaustion (encoder and decoder decrement the same budget
//! counter in lock-step, so truncation points always agree).
//!
//! Coefficients must already be in sequency order so significance grows
//! monotonically along the array — that is what makes the unary group
//! tests cheap.

use hpdr_core::Result;
use hpdr_kernels::{BitReader, BitWriter};

#[inline]
fn shr(x: u64, m: u32) -> u64 {
    if m >= 64 {
        0
    } else {
        x >> m
    }
}

/// Natural output bound for [`encode_ints`]: each of the 64 planes emits
/// at most `size` verbatim bits plus `size + 1` group/value bits, so
/// `64 × (2·64 + 1)` bits ⇒ 130 words cover every possible stream.
const EMIT_WORDS: usize = 130;

/// Local bit accumulator for [`encode_ints`]: collects the stream in a
/// stack buffer with one branch per append, then hands whole words to the
/// (bounds-checked, spill-handling) `BitWriter` in a single pass. The
/// plane loop appends a handful of bits at a time, so routing every group
/// test through `BitWriter::write_bits` costs more than the coding itself.
struct Emit {
    buf: [u64; EMIT_WORDS],
    acc: u64,
    /// Bits resident in `acc` (< 64 between pushes).
    nacc: u32,
    nwords: usize,
}

impl Emit {
    #[inline]
    fn new() -> Emit {
        Emit {
            buf: [0; EMIT_WORDS],
            acc: 0,
            nacc: 0,
            nwords: 0,
        }
    }

    /// Append the low `nbits` of `value` (LSB first, `value` pre-masked).
    #[inline]
    fn push(&mut self, value: u64, nbits: u32) {
        debug_assert!(nbits <= 64);
        debug_assert!(nbits == 64 || value >> nbits == 0);
        self.acc |= value << self.nacc;
        let total = self.nacc + nbits;
        if total >= 64 {
            self.buf[self.nwords] = self.acc;
            self.nwords += 1;
            self.acc = if self.nacc == 0 {
                0
            } else {
                value >> (64 - self.nacc)
            };
            self.nacc = total - 64;
        } else {
            self.nacc = total;
        }
    }

    /// Flush into `w`. `total_bits` must equal the number of pushed bits,
    /// so `buf[..nwords]` holds the full words and `acc` the partial tail.
    fn flush_to(self, w: &mut BitWriter, total_bits: u32) {
        debug_assert_eq!(self.nwords, (total_bits / 64) as usize);
        for &word in &self.buf[..self.nwords] {
            w.write_bits(word, 64);
        }
        let rem = total_bits % 64;
        if rem > 0 {
            w.write_bits(self.acc, rem);
        }
    }
}

/// Encode `data` (negabinary, sequency-ordered, `len <= 64`) using at most
/// `maxbits` bits of `w`, covering bit planes `kmin..64`. Returns the
/// number of bits written.
///
/// The group-test coding follows zfp's `encode_ints` control flow, but
/// each unary run is emitted in closed form: a run of `tz` insignificant
/// coefficients followed by a significant one always serializes as the
/// word `1 | 1 << (tz + 1)` (test bit, `tz` zeros, terminating one), so a
/// single trailing-zeros count replaces the per-bit inner loop. Budget
/// exhaustion truncates that word's low bits — identical to stopping the
/// reference loop mid-run.
pub fn encode_ints(w: &mut BitWriter, maxbits: u32, kmin: u32, data: &[u64]) -> u32 {
    let size = data.len();
    debug_assert!((1..=64).contains(&size));
    // Extract all 64 bit planes at once: one 64×64 bit transpose turns
    // coefficient words into plane words (`planes[k]` bit `i` == `data[i]`
    // bit `k`), replacing the per-plane 64-iteration gather loop.
    let mut planes = [0u64; 64];
    planes[..size].copy_from_slice(data);
    (hpdr_kernels::kernels().bit_transpose64)(&mut planes);
    let mut e = Emit::new();
    let mut bits = maxbits.min(64 * (2 * 64 + 1));
    let clamped = maxbits - bits; // re-added at return; never emitted
    let mut n: usize = 0;
    let mut k = 64u32;
    'planes: while bits > 0 && k > kmin {
        k -= 1;
        // Step 1: bit plane #k.
        let x: u64 = planes[k as usize];
        // Step 2: verbatim bits for the n already-significant coefficients.
        let m = (n as u32).min(bits);
        bits -= m;
        e.push(if m == 64 { x } else { x & !(u64::MAX << m) }, m);
        let mut x = shr(x, m);
        // Step 3: group-test the remainder of the plane, one run at a time.
        loop {
            if n >= size || bits == 0 {
                break;
            }
            if x == 0 {
                // Group test 0: no significant coefficients remain.
                bits -= 1;
                e.push(0, 1);
                break;
            }
            // `x` has `size - n` live bits, so `tz <= size - n - 1`.
            let tz = x.trailing_zeros() as usize;
            let (chunk, chunk_len) = if tz < size - 1 - n {
                // Test 1, `tz` zeros, terminating 1.
                (1u64 | (1u64 << (tz + 1)), tz as u32 + 2)
            } else {
                // Final coefficient's run: its terminating 1 is implied
                // (the reference inner loop stops at `size - 1`).
                (1u64, (size - n) as u32)
            };
            if bits < chunk_len {
                // Budget exhausts mid-run: emit the run's first `bits`
                // bits (test bit + zeros) and stop everything.
                e.push(chunk & !(u64::MAX << bits), bits);
                bits = 0;
                break 'planes;
            }
            bits -= chunk_len;
            e.push(chunk, chunk_len);
            if tz < size - 1 - n {
                x >>= tz + 1;
                n += tz + 1;
            } else {
                n = size;
                break;
            }
        }
    }
    let written = maxbits - clamped - bits;
    e.flush_to(w, written);
    written
}

/// The low `m` bits of `w` (`m <= 64`).
#[inline]
fn low_bits(w: u64, m: u32) -> u64 {
    if m >= 64 {
        w
    } else {
        w & !(u64::MAX << m)
    }
}

/// Decode the planes written by [`encode_ints`] with identical `maxbits`
/// and `kmin` into `out[..size]` (the negabinary coefficients; the rest
/// of `out` is zeroed).
///
/// The inverse of the closed-form emission: each group test and the
/// zero run after it are read from one peeked window. The run is
/// `trailing_zeros` long, capped at `size − 1 − n` and at the budget left
/// after the test bit — exactly where zfp's per-bit loop stops reading —
/// so the decoder consumes the bits that loop consumed and errs when they
/// do not fit the stream.
pub fn decode_ints(
    r: &mut BitReader<'_>,
    maxbits: u32,
    kmin: u32,
    size: usize,
    out: &mut [u64; 64],
) -> Result<()> {
    debug_assert!((1..=64).contains(&size));
    let mut bits = maxbits;
    let mut n: usize = 0;
    *out = [0; 64];
    let mut k = 64u32;
    while bits > 0 && k > kmin {
        k -= 1;
        // Verbatim bits for the n already-significant coefficients.
        let m = (n as u32).min(bits);
        bits -= m;
        let mut x = low_bits(r.peek_padded(), m);
        r.seek(r.bit_pos() + u64::from(m))?;
        // Group tests, one run per window. Past the stream end the window
        // reads zeros, so a run that leaves the stream consumes more than
        // remains and `seek` errs — where the per-bit loop's read erred.
        while n < size && bits > 0 {
            let w = r.peek_padded();
            if w & 1 == 0 {
                // Group test 0: no significant coefficients remain.
                r.seek(r.bit_pos() + 1)?;
                bits -= 1;
                break;
            }
            // Test bit, then `tz` zeros and a terminating one; a run that
            // reaches the cap stops without its terminator.
            let cap = ((size - 1 - n) as u32).min(bits - 1);
            let tz = (w >> 1).trailing_zeros();
            let (zeros, used) = if tz < cap {
                (tz, tz + 2)
            } else {
                (cap, cap + 1)
            };
            r.seek(r.bit_pos() + u64::from(used))?;
            bits -= used;
            n += zeros as usize;
            x += 1u64 << n;
            n += 1;
        }
        out[k as usize] = x;
    }
    // One transpose deposits every decoded plane into its coefficients
    // (`out[i]` bit `k` == plane `k` bit `i`); undecoded planes are 0.
    (hpdr_kernels::kernels().bit_transpose64)(out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u64], maxbits: u32, kmin: u32) -> Vec<u64> {
        let mut w = BitWriter::new();
        let used = encode_ints(&mut w, maxbits, kmin, data);
        assert!(used as u64 <= maxbits as u64);
        assert_eq!(used as u64, w.bit_len());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = [0u64; 64];
        decode_ints(&mut r, maxbits, kmin, data.len(), &mut out).unwrap();
        out[..data.len()].to_vec()
    }

    #[test]
    fn lossless_with_full_budget() {
        let cases: Vec<Vec<u64>> = vec![
            vec![0x0F, 0x3, 0x100, 0, 0xFFFF, 1, 2, 3],
            vec![0; 16],
            vec![u64::MAX >> 1; 4],
            (0..64u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(7) >> 1)
                .collect(),
            vec![1u64 << 62],
            vec![0, 0, 0, 1],
        ];
        for data in cases {
            let out = roundtrip(&data, 1 << 20, 0);
            assert_eq!(out, data);
        }
    }

    #[test]
    fn truncation_bounds_error_per_plane() {
        // With kmin = K all planes below K are dropped; reconstruction
        // must agree on every plane >= K.
        let data: Vec<u64> = (0..16u64).map(|i| (i * 0x1234_5678) ^ (i << 40)).collect();
        for kmin in [8u32, 16, 32, 48] {
            let out = roundtrip(&data, 1 << 20, kmin);
            for (a, b) in data.iter().zip(&out) {
                assert_eq!(a >> kmin, b >> kmin, "kmin={kmin}");
            }
        }
    }

    #[test]
    fn budget_is_respected_and_deterministic() {
        let data: Vec<u64> = (0..64u64).map(|i| 1u64 << (i % 60)).collect();
        for maxbits in [17u32, 64, 256, 512, 1024] {
            let mut w = BitWriter::new();
            let used = encode_ints(&mut w, maxbits, 0, &data);
            assert!(used <= maxbits);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            // Decoding with the same budget must not error even when the
            // stream was truncated by the budget.
            decode_ints(&mut r, maxbits, 0, data.len(), &mut [0; 64]).unwrap();
        }
    }

    /// The original per-bit emission loop, kept verbatim as the oracle
    /// for the closed-form run emission in [`encode_ints`].
    fn encode_ints_reference(w: &mut BitWriter, maxbits: u32, kmin: u32, data: &[u64]) -> u32 {
        let size = data.len();
        let mut planes = [0u64; 64];
        planes[..size].copy_from_slice(data);
        (hpdr_kernels::kernels().bit_transpose64)(&mut planes);
        let mut bits = maxbits;
        let mut n: usize = 0;
        let mut k = 64u32;
        while bits > 0 && k > kmin {
            k -= 1;
            let x: u64 = planes[k as usize];
            let m = (n as u32).min(bits);
            bits -= m;
            w.write_bits(x, m);
            let mut x = shr(x, m);
            loop {
                if n >= size || bits == 0 {
                    break;
                }
                bits -= 1;
                let any = x != 0;
                w.write_bit(any);
                if !any {
                    break;
                }
                loop {
                    if n >= size - 1 || bits == 0 {
                        break;
                    }
                    bits -= 1;
                    let bit = (x & 1) == 1;
                    w.write_bit(bit);
                    if bit {
                        break;
                    }
                    x >>= 1;
                    n += 1;
                }
                x >>= 1;
                n += 1;
            }
        }
        maxbits - bits
    }

    /// zfp's per-bit decoding loop, kept verbatim as the oracle for the
    /// closed-form run decoding in [`decode_ints`].
    fn decode_ints_reference(
        r: &mut BitReader<'_>,
        maxbits: u32,
        kmin: u32,
        size: usize,
    ) -> Result<Vec<u64>> {
        let mut bits = maxbits;
        let mut n: usize = 0;
        let mut planes = [0u64; 64];
        let mut k = 64u32;
        while bits > 0 && k > kmin {
            k -= 1;
            let m = (n as u32).min(bits);
            bits -= m;
            let mut x = r.read_bits(m)?;
            loop {
                if n >= size || bits == 0 {
                    break;
                }
                bits -= 1;
                if !r.read_bit()? {
                    break;
                }
                loop {
                    if n >= size - 1 || bits == 0 {
                        break;
                    }
                    bits -= 1;
                    if r.read_bit()? {
                        break;
                    }
                    n += 1;
                }
                x += 1u64 << n;
                n += 1;
            }
            planes[k as usize] = x;
        }
        (hpdr_kernels::kernels().bit_transpose64)(&mut planes);
        Ok(planes[..size].to_vec())
    }

    /// Pseudo-random blocks of every size 1..=64: dense, sparse,
    /// small-magnitude and all-zero words.
    fn sample_blocks() -> Vec<Vec<u64>> {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut blocks = Vec::new();
        for size in 1..=64usize {
            for case in 0..8 {
                blocks.push(
                    (0..size)
                        .map(|_| {
                            let v = rng();
                            match case % 4 {
                                0 => v,
                                1 => v & rng() & rng(),
                                2 => v >> (v % 50),
                                _ => 0,
                            }
                        })
                        .collect(),
                );
            }
        }
        blocks
    }

    const BUDGETS: [u32; 10] = [1, 7, 17, 63, 64, 65, 129, 1007, 4096, 1 << 24];

    #[test]
    #[cfg_attr(miri, ignore)]
    fn closed_form_decoding_matches_reference() {
        // Every size, ten budgets, three kmin, and three truncations of
        // the stream: intact, cut to half its bytes, and one byte short.
        // The decoders must agree on Ok/Err, the coefficients, and the
        // bit position they stop at.
        for data in sample_blocks() {
            let size = data.len();
            for maxbits in BUDGETS {
                for kmin in [0u32, 13, 52] {
                    let mut w = BitWriter::new();
                    encode_ints(&mut w, maxbits, kmin, &data);
                    let bytes = w.into_bytes();
                    for cut in [bytes.len(), bytes.len() / 2, bytes.len().saturating_sub(1)] {
                        let stream = &bytes[..cut];
                        let mut ra = BitReader::new(stream);
                        let mut out = [0u64; 64];
                        let a = decode_ints(&mut ra, maxbits, kmin, size, &mut out);
                        let mut rb = BitReader::new(stream);
                        let b = decode_ints_reference(&mut rb, maxbits, kmin, size);
                        let at = format!("size={size} maxbits={maxbits} kmin={kmin} cut={cut}");
                        match (a, b) {
                            (Ok(()), Ok(want)) => {
                                assert_eq!(&out[..size], &want[..], "{at}");
                                assert!(out[size..].iter().all(|&v| v == 0), "{at}");
                                assert_eq!(ra.bit_pos(), rb.bit_pos(), "{at}");
                            }
                            (Err(_), Err(_)) => {}
                            (a, b) => panic!("{at}: {a:?} vs {b:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn closed_form_emission_matches_reference_bit_for_bit() {
        // Pseudo-random blocks over every size, a spread of budgets that
        // exercises truncation at every alignment, and kmin truncation.
        for data in sample_blocks() {
            let size = data.len();
            for maxbits in BUDGETS {
                for kmin in [0u32, 13, 52] {
                    let mut wa = BitWriter::new();
                    let ua = encode_ints(&mut wa, maxbits, kmin, &data);
                    let mut wb = BitWriter::new();
                    let ub = encode_ints_reference(&mut wb, maxbits, kmin, &data);
                    assert_eq!(ua, ub, "size={size} maxbits={maxbits} kmin={kmin}");
                    assert_eq!(
                        wa.clone().into_bytes(),
                        wb.clone().into_bytes(),
                        "size={size} maxbits={maxbits} kmin={kmin}"
                    );
                    assert_eq!(wa.bit_len(), wb.bit_len());
                }
            }
        }
    }

    #[test]
    fn zero_block_costs_one_bit_per_plane() {
        let data = vec![0u64; 16];
        let mut w = BitWriter::new();
        let used = encode_ints(&mut w, 4096, 0, &data);
        assert_eq!(used, 64); // one group-test bit per plane
    }

    #[test]
    fn higher_budget_never_increases_plane_error() {
        let data: Vec<u64> = (0..16u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 4)
            .collect();
        let mut prev_err: Option<u64> = None;
        for maxbits in [32u32, 64, 128, 256, 512, 1024, 2048] {
            let out = roundtrip(&data, maxbits, 0);
            let err: u64 = data
                .iter()
                .zip(&out)
                .map(|(a, b)| a.max(b) - a.min(b))
                .max()
                .unwrap();
            if let Some(p) = prev_err {
                assert!(err <= p, "error grew with budget {maxbits}: {err} > {p}");
            }
            prev_err = Some(err);
        }
    }
}
