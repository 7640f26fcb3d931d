//! SHA-256 as specified in FIPS 180-4.
//!
//! Every signature, segment id, certificate digest and path fingerprint of
//! the control plane ends in `compress`, so there is exactly one of it.
//! It picks its kernel at run time, by what the CPU has:
//!
//! * on x86_64 with the SHA extensions (and SSE4.1), a hardware kernel in
//!   which `sha256rnds2` runs two rounds an instruction and
//!   `sha256msg1`/`sha256msg2` extend the message schedule four words at a
//!   time;
//! * everywhere else, `portable`: safe Rust written for the machine —
//!   the message schedule is a rolling window of 16 words (`w[t]`
//!   overwrites `w[t - 16]`, extended eight words at a time from round 16
//!   on), the 64 rounds run as eight groups of eight in which the working
//!   variables are renamed from round to round instead of being shuffled
//!   through each other, and `ch`/`maj` use their short forms.
//!
//! There is no knob: both kernels compute the same function, and
//! [`kernel`] names the one this process runs. [`Sha256::update`],
//! [`Sha256::finalize`], [`sha256`] and [`crate::hmac::HmacKey`] all reach
//! `compress` through whole blocks of the caller's bytes; padding is built
//! once, on the stack, in `digest_from`.
//!
//! `compress` counts the blocks it is handed in the per-thread
//! [`Work::Sha256Compressions`] counter, whichever kernel runs them.
//!
//! Verified against the FIPS / NIST example vectors and, block by block,
//! both kernels against the textbook 64-word kernel kept in the test module.

use sciera_telemetry::work::{self, Work};

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
        }
        // Whole blocks go to the kernel from where they lie; only a partial
        // last block is staged.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK_LEN);
        compress(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let absorbed = self.total_len.wrapping_sub(self.buf_len as u64);
        digest_from(self.state, absorbed, &self.buf[..self.buf_len])
    }
}

/// One-shot convenience wrapper: `sha256(data)`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    digest_from(H0, 0, data)
}

/// The digest of a message whose first `absorbed` bytes — whole blocks —
/// are already compressed into `state` and whose remainder is `rest`:
/// compresses the whole blocks of `rest` in place and its tail, padded
/// (`0x80`, zeros, the 64-bit big-endian bit length), from the stack.
pub(crate) fn digest_from(mut state: [u32; 8], absorbed: u64, rest: &[u8]) -> [u8; DIGEST_LEN] {
    let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
    compress(&mut state, blocks);
    let mut pad = [0u8; 2 * BLOCK_LEN];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let end = if tail.len() < 56 {
        BLOCK_LEN
    } else {
        2 * BLOCK_LEN
    };
    let bit_len = absorbed.wrapping_add(rest.len() as u64).wrapping_mul(8);
    pad[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &pad[..end]);
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One round, with the working variables in the order the caller names
/// them: only `d` and `h` change, so the next round passes the same eight
/// names rotated by one instead of moving eight values.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        $d = $d.wrapping_add(t1);
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
    };
}

/// The SHA-256 compression function over every 64-byte block of `blocks`
/// (a whole number of them), chaining through `state`: the hardware kernel
/// where the CPU has one, [`portable`] where it does not.
#[allow(unsafe_code)]
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    work::add(Work::Sha256Compressions, (blocks.len() / BLOCK_LEN) as u64);
    #[cfg(target_arch = "x86_64")]
    if has_sha_extensions() {
        // SAFETY: `x86::compress` needs SHA, SSE2, SSSE3 and SSE4.1, and
        // `has_sha_extensions` has just detected SHA and SSE4.1; every x86_64
        // CPU has SSE2, and every CPU with SSE4.1 has SSSE3.
        unsafe { x86::compress(state, blocks) };
        return;
    }
    portable(state, blocks);
}

/// The kernel `compress` runs on this CPU: `"x86-sha"` or `"portable"`.
pub fn kernel() -> &'static str {
    if has_sha_extensions() {
        "x86-sha"
    } else {
        "portable"
    }
}

/// Whether this CPU runs the hardware kernel (`std` caches the detection,
/// so asking costs a load).
fn has_sha_extensions() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("sha") && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The portable kernel: every target runs it where the CPU lacks the SHA
/// extensions.
fn portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 16];
        for (w, c) in w.iter_mut().zip(block.chunks_exact(4)) {
            *w = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in (0..64).step_by(8) {
            if i >= 16 {
                for t in i..i + 8 {
                    let (w15, w2) = (w[(t + 1) & 15], w[(t + 14) & 15]);
                    w[t & 15] = w[t & 15]
                        .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                        .wrapping_add(w[(t + 9) & 15])
                        .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
                }
            }
            let kw = |j: usize| K[i + j].wrapping_add(w[(i + j) & 15]);
            round!(a, b, c, d, e, f, g, h, kw(0));
            round!(h, a, b, c, d, e, f, g, kw(1));
            round!(g, h, a, b, c, d, e, f, kw(2));
            round!(f, g, h, a, b, c, d, e, kw(3));
            round!(e, f, g, h, a, b, c, d, kw(4));
            round!(d, e, f, g, h, a, b, c, kw(5));
            round!(c, d, e, f, g, h, a, b, kw(6));
            round!(b, c, d, e, f, g, h, a, kw(7));
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The kernel on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::*;

    /// Four big-endian words of `bytes` (16 of them), the first in lane 0.
    #[target_feature(enable = "sse2")]
    fn words(bytes: &[u8]) -> __m128i {
        let w = |i: usize| {
            u32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]) as i32
        };
        _mm_set_epi32(w(12), w(8), w(4), w(0))
    }

    /// The next four schedule words from the sixteen before them.
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// [`super::compress`] on the SHA extensions. The state lives in two
    /// registers as `sha256rnds2` wants it, lanes high to low `a b e f` and
    /// `c d g h`; each instruction runs two rounds and hands back the new
    /// `a b e f`, the old one becoming `c d g h`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, h);
        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // Group j of four rounds starts with schedule words 4j..4j + 16
            // in `w` (fewer in the last three) and slides that window on by
            // four.
            let mut w = [0, 16, 32, 48].map(|i| words(&block[i..i + 16]));
            for j in 0..16 {
                let k = |i: usize| K[4 * j + i] as i32;
                let kw = _mm_add_epi32(w[0], _mm_set_epi32(k(3), k(2), k(1), k(0)));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, kw);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(kw, 0x0e));
                let next = if j < 12 {
                    schedule(w[0], w[1], w[2], w[3])
                } else {
                    w[0]
                };
                w = [w[1], w[2], w[3], next];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ]
        .map(|v| v as u32);
    }
}

/// Renders a digest as lowercase hex, handy in tests and log lines.
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

/// How many compressions `f` runs (on this thread): the block arithmetic
/// the control plane's cost rests on, pinned where it is relied on.
#[cfg(test)]
pub(crate) fn compressions_in<T>(f: impl FnOnce() -> T) -> u64 {
    work::counted(f).1.sha256_compressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernel as FIPS 180-4 writes it — a 64-word schedule, one round a
    /// loop turn, all eight variables moved — kept as the reference.
    fn textbook_compress(state: &mut [u32; 8], block: &[u8]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let kw = K[i].wrapping_add(w[i]);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(kw);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let t2 = s0.wrapping_add((a & b) ^ (a & c) ^ (b & c));
            (h, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// SHA-256 built from the textbook kernel and a padded copy of `data`.
    fn textbook_sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        msg.resize((data.len() + 9).div_ceil(BLOCK_LEN) * BLOCK_LEN - 8, 0);
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(BLOCK_LEN) {
            textbook_compress(&mut state, block);
        }
        let words: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
        words.try_into().expect("eight words")
    }

    proptest! {
        #[test]
        fn compress_matches_the_textbook_kernel(
            state in any::<[u32; 8]>(),
            bytes in any::<[u8; 3 * BLOCK_LEN]>(),
            n in 1usize..=3,
        ) {
            let blocks = &bytes[..n * BLOCK_LEN];
            let mut reference = state;
            for block in blocks.chunks_exact(BLOCK_LEN) {
                textbook_compress(&mut reference, block);
            }
            let mut soft = state;
            portable(&mut soft, blocks);
            prop_assert_eq!(soft, reference);
            // The hardware kernel wherever the CPU has it (see below).
            let mut dispatched = state;
            compress(&mut dispatched, blocks);
            prop_assert_eq!(dispatched, reference);
        }
    }

    #[test]
    fn the_hardware_kernel_runs_wherever_the_cpu_has_it() {
        // Asked of the CPU here, not through `has_sha_extensions`, so a
        // dispatch that silently falls back fails on a machine with them.
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sha") && std::is_x86_feature_detected!("sse4.1") {
            assert_eq!(kernel(), "x86-sha");
            return;
        }
        assert_eq!(kernel(), "portable");
    }

    #[test]
    fn every_length_and_every_split_agree_with_the_textbook() {
        // 0..=300 crosses the 55/56, 63/64 and 119/120 padding cliffs.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=data.len() {
            let msg = &data[..len];
            let expected = textbook_sha256(msg);
            assert_eq!(sha256(msg), expected, "one-shot, length {len}");
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), expected, "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn a_digest_costs_one_compression_per_padded_block() {
        // The 7- and 10-hop fingerprint inputs, and the padding cliff.
        for (len, blocks) in [(0, 1), (55, 1), (56, 2), (84, 2), (119, 2), (120, 3)] {
            assert_eq!(
                compressions_in(|| sha256(&vec![0u8; len])),
                blocks,
                "{len} B"
            );
        }
    }

    #[test]
    fn to_hex_renders_every_byte_value_like_the_formatter() {
        let all: Vec<u8> = (0u8..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&all), expected);
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_two_block() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }
}
