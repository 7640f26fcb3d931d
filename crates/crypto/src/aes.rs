//! AES-128 block encryption (FIPS 197).
//!
//! Only encryption is implemented: CMAC (and thus the SCION hop-field MAC)
//! never needs the inverse cipher. The key schedule is computed once, in
//! software; [`Aes128::encrypt_block`] picks its kernel at run time, by
//! what the CPU has, as SHA-256's `compress` does:
//!
//! * on x86_64 with AES-NI (and SSE4.1), a hardware kernel in which each
//!   round is one `aesenc`;
//! * everywhere else, `portable`: the straightforward table-free rounds
//!   of FIPS 197, which the tests keep as the oracle of the other.
//!
//! There is no knob: both kernels compute the same function, and [`kernel`]
//! names the one this process runs. `encrypt_block` counts the blocks it
//! is handed in the per-thread [`Work::AesBlocks`] counter, whichever
//! kernel runs them. Verified against the FIPS 197 Appendix B and C
//! vectors, and kernel against kernel on random keys and blocks.

use sciera_telemetry::work::{self, Work};

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;
const ROUNDS: usize = 10;

#[rustfmt::skip]
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES-128 key, ready to encrypt blocks.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; ROUNDS + 1],
}

impl Aes128 {
    /// Expands a 16-byte key into the round-key schedule.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = [
                    SBOX[temp[1] as usize] ^ RCON[i / 4 - 1],
                    SBOX[temp[2] as usize],
                    SBOX[temp[3] as usize],
                    SBOX[temp[0] as usize],
                ];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for r in 0..=ROUNDS {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts one 16-byte block in place: the hardware kernel where the
    /// CPU has one, `portable` where it does not.
    #[allow(unsafe_code)]
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        work::add(Work::AesBlocks, 1);
        #[cfg(target_arch = "x86_64")]
        if has_aes_ni() {
            // SAFETY: `x86::encrypt` needs AES-NI, SSE2 and SSE4.1, and
            // `has_aes_ni` has just detected AES-NI and SSE4.1; every x86_64
            // CPU has SSE2.
            unsafe { x86::encrypt(&self.round_keys, block) };
            return;
        }
        portable(&self.round_keys, block);
    }

    /// Encrypts one block, returning the ciphertext.
    pub fn encrypt(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

/// The kernel [`Aes128::encrypt_block`] runs on this CPU: `"x86-aesni"` or
/// `"portable"`.
pub fn kernel() -> &'static str {
    if has_aes_ni() {
        "x86-aesni"
    } else {
        "portable"
    }
}

/// Whether this CPU runs the hardware kernel (`std` caches the detection,
/// so asking costs a load).
fn has_aes_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("aes") && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The portable kernel: every target runs it where the CPU lacks AES-NI.
fn portable(round_keys: &[[u8; 16]; ROUNDS + 1], block: &mut [u8; BLOCK_LEN]) {
    add_round_key(block, &round_keys[0]);
    for rk in &round_keys[1..ROUNDS] {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, rk);
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, &round_keys[ROUNDS]);
}

/// The kernel on AES-NI.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BLOCK_LEN, ROUNDS};
    use std::arch::x86_64::*;

    /// Sixteen bytes in a register, byte 0 in the lowest lane, as a load
    /// from memory puts them.
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        let half = |i: usize| i64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        _mm_set_epi64x(half(8), half(0))
    }

    /// [`super::portable`] on AES-NI: the whitening XOR, nine `aesenc`
    /// rounds and one `aesenclast`, over the same round keys.
    #[target_feature(enable = "aes,sse2,sse4.1")]
    pub(super) fn encrypt(round_keys: &[[u8; 16]; ROUNDS + 1], block: &mut [u8; BLOCK_LEN]) {
        let mut state = _mm_xor_si128(load(block), load(&round_keys[0]));
        for rk in &round_keys[1..ROUNDS] {
            state = _mm_aesenc_si128(state, load(rk));
        }
        state = _mm_aesenclast_si128(state, load(&round_keys[ROUNDS]));
        let (lo, hi) = (_mm_extract_epi64(state, 0), _mm_extract_epi64(state, 1));
        block[..8].copy_from_slice(&lo.to_le_bytes());
        block[8..].copy_from_slice(&hi.to_le_bytes());
    }
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("Aes128 { .. }")
    }
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State is column-major: state[4*c + r] is row r, column c.
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn xtime(b: u8) -> u8 {
    let hi = b & 0x80;
    let mut out = b << 1;
    if hi != 0 {
        out ^= 0x1b;
    }
    out
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let a0 = state[4 * c];
        let a1 = state[4 * c + 1];
        let a2 = state[4 * c + 2];
        let a3 = state[4 * c + 3];
        state[4 * c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        state[4 * c + 1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        state[4 * c + 2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        state[4 * c + 3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = from_hex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(
            to_hex(&aes.encrypt(&pt)),
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        );
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = from_hex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let pt: [u8; 16] = from_hex("3243f6a8885a308d313198a2e0370734")
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(
            to_hex(&aes.encrypt(&pt)),
            "3925841d02dc09fbdc118597196a0b32"
        );
    }

    #[test]
    fn the_hardware_kernel_runs_wherever_the_cpu_has_it() {
        // Asked of the CPU here, not through `has_aes_ni`, so a dispatch
        // that silently falls back fails on a machine with AES-NI.
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("aes") && std::is_x86_feature_detected!("sse4.1") {
            assert_eq!(kernel(), "x86-aesni");
            return;
        }
        assert_eq!(kernel(), "portable");
    }

    #[test]
    fn both_kernels_meet_the_fips_197_vectors() {
        for (key, pt, ct) in [
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
        ] {
            let aes = Aes128::new(&from_hex(key).try_into().unwrap());
            let mut soft: [u8; 16] = from_hex(pt).try_into().unwrap();
            portable(&aes.round_keys, &mut soft);
            assert_eq!(to_hex(&soft), ct);
            // The dispatched kernel: the hardware one wherever the CPU has it.
            assert_eq!(to_hex(&aes.encrypt(&from_hex(pt).try_into().unwrap())), ct);
        }
    }

    proptest::proptest! {
        #[test]
        fn the_kernels_agree_on_random_keys_and_blocks(
            key in proptest::prelude::any::<[u8; 16]>(),
            block in proptest::prelude::any::<[u8; 16]>(),
        ) {
            let aes = Aes128::new(&key);
            let mut soft = block;
            portable(&aes.round_keys, &mut soft);
            proptest::prop_assert_eq!(aes.encrypt(&block), soft);
        }
    }

    #[test]
    fn a_block_is_counted_whichever_kernel_runs_it() {
        let aes = Aes128::new(&[3u8; 16]);
        let (_, done) = work::counted(|| {
            let mut block = [0u8; 16];
            for _ in 0..5 {
                aes.encrypt_block(&mut block);
            }
        });
        assert_eq!(done.aes_blocks, 5);
    }

    #[test]
    fn distinct_keys_distinct_ciphertexts() {
        let pt = [0u8; 16];
        let c1 = Aes128::new(&[1u8; 16]).encrypt(&pt);
        let c2 = Aes128::new(&[2u8; 16]).encrypt(&pt);
        assert_ne!(c1, c2);
    }

    #[test]
    fn encrypt_is_deterministic() {
        let aes = Aes128::new(&[7u8; 16]);
        let pt = [0x55u8; 16];
        assert_eq!(aes.encrypt(&pt), aes.encrypt(&pt));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes128::new(&[9u8; 16]);
        assert_eq!(format!("{aes:?}"), "Aes128 { .. }");
    }
}
