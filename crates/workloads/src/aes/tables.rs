//! AES-128 reference implementation and T-table generation (host side).
//!
//! The GPU workload mirrors Libgpucrypto's T-table AES: four 256-entry
//! 32-bit tables (`Te0..Te3`) combine SubBytes, ShiftRows, and MixColumns
//! into per-byte lookups, plus the raw S-box for the final round. All
//! tables are generated from first principles (GF(2⁸) arithmetic) rather
//! than transcribed, and validated against FIPS-197 vectors in the tests.

use std::sync::OnceLock;

/// Multiplication in GF(2⁸) with the AES polynomial x⁸+x⁴+x³+x+1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    p
}

/// The AES S-box, generated as the affine transform of the multiplicative
/// inverse in GF(2⁸). Built on first use and shared after that: the
/// brute-force inversion would otherwise dominate every encryption's host
/// time.
pub fn sbox() -> &'static [u8; 256] {
    static SBOX: OnceLock<[u8; 256]> = OnceLock::new();
    SBOX.get_or_init(|| {
        let mut inv = [0u8; 256];
        for x in 1..=255u8 {
            for y in 1..=255u8 {
                if gf_mul(x, y) == 1 {
                    inv[x as usize] = y;
                    break;
                }
            }
        }
        let mut s = [0u8; 256];
        for x in 0..256 {
            let i = inv[x];
            s[x] = i
                ^ i.rotate_left(1)
                ^ i.rotate_left(2)
                ^ i.rotate_left(3)
                ^ i.rotate_left(4)
                ^ 0x63;
        }
        s
    })
}

/// The four encryption T-tables, built on first use.
///
/// `Te0[x] = (2·S[x], S[x], S[x], 3·S[x])` packed big-endian;
/// `Te1..Te3` are byte rotations of `Te0`.
pub fn t_tables() -> &'static [[u32; 256]; 4] {
    static TE: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
    TE.get_or_init(|| {
        let s = sbox();
        let mut te = [[0u32; 256]; 4];
        for x in 0..256 {
            let sx = s[x];
            let t0 = (u32::from(gf_mul(sx, 2)) << 24)
                | (u32::from(sx) << 16)
                | (u32::from(sx) << 8)
                | u32::from(gf_mul(sx, 3));
            te[0][x] = t0;
            te[1][x] = t0.rotate_right(8);
            te[2][x] = t0.rotate_right(16);
            te[3][x] = t0.rotate_right(24);
        }
        te
    })
}

/// Expands a 16-byte key into 44 round-key words (AES-128).
pub fn expand_key(key: &[u8; 16]) -> [u32; 44] {
    let s = sbox();
    let mut rk = [0u32; 44];
    for i in 0..4 {
        rk[i] = u32::from_be_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    let mut rcon: u8 = 1;
    for i in 4..44 {
        let mut t = rk[i - 1];
        if i % 4 == 0 {
            // RotWord + SubWord + Rcon.
            t = t.rotate_left(8);
            let b = t.to_be_bytes();
            t = u32::from_be_bytes([
                s[b[0] as usize],
                s[b[1] as usize],
                s[b[2] as usize],
                s[b[3] as usize],
            ]);
            t ^= u32::from(rcon) << 24;
            rcon = gf_mul(rcon, 2);
        }
        rk[i] = rk[i - 4] ^ t;
    }
    rk
}

/// Reference AES-128 single-block encryption using the same T-tables the
/// GPU kernel uses — the correctness oracle for the device code.
pub fn encrypt_block(rk: &[u32; 44], pt: &[u8; 16]) -> [u8; 16] {
    let te = t_tables();
    let s = sbox();
    let mut w = [0u32; 4];
    for i in 0..4 {
        w[i] = u32::from_be_bytes([pt[4 * i], pt[4 * i + 1], pt[4 * i + 2], pt[4 * i + 3]]) ^ rk[i];
    }
    for round in 1..10 {
        let mut t = [0u32; 4];
        for i in 0..4 {
            t[i] = te[0][(w[i] >> 24) as usize]
                ^ te[1][(w[(i + 1) % 4] >> 16 & 0xff) as usize]
                ^ te[2][(w[(i + 2) % 4] >> 8 & 0xff) as usize]
                ^ te[3][(w[(i + 3) % 4] & 0xff) as usize]
                ^ rk[4 * round + i];
        }
        w = t;
    }
    let mut out = [0u8; 16];
    for i in 0..4 {
        let b = [
            s[(w[i] >> 24) as usize],
            s[(w[(i + 1) % 4] >> 16 & 0xff) as usize],
            s[(w[(i + 2) % 4] >> 8 & 0xff) as usize],
            s[(w[(i + 3) % 4] & 0xff) as usize],
        ];
        let word = u32::from_be_bytes(b) ^ rk[40 + i];
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_matches_fips_197() {
        let s = sbox();
        assert_eq!(s[0x00], 0x63);
        assert_eq!(s[0x01], 0x7c);
        assert_eq!(s[0x53], 0xed);
        assert_eq!(s[0xff], 0x16);
        assert_eq!(s[0x10], 0xca);
    }

    #[test]
    fn gf_mul_basics() {
        assert_eq!(gf_mul(0x57, 0x02), 0xae);
        assert_eq!(gf_mul(0x57, 0x13), 0xfe); // FIPS-197 example
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn t_tables_are_rotations() {
        let te = t_tables();
        for x in 0..256 {
            assert_eq!(te[1][x], te[0][x].rotate_right(8));
            assert_eq!(te[3][x], te[0][x].rotate_right(24));
        }
        // Te0[0x00]: S=0x63 → (0xc6, 0x63, 0x63, 0xa5).
        assert_eq!(te[0][0], 0xc663_63a5);
    }

    #[test]
    fn key_expansion_matches_fips_197_appendix_a() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = expand_key(&key);
        assert_eq!(rk[0], 0x2b7e1516);
        assert_eq!(rk[4], 0xa0fafe17);
        assert_eq!(rk[43], 0xb6630ca6);
    }

    #[test]
    fn encrypt_matches_fips_197_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expect = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(encrypt_block(&expand_key(&key), &pt), expect);
    }

    #[test]
    fn encrypt_nist_vector_all_zero() {
        // NIST AESAVS: key=0, pt=0 → 66e94bd4ef8a2c3b884cfa59ca342b2e.
        let ct = encrypt_block(&expand_key(&[0; 16]), &[0; 16]);
        assert_eq!(
            ct,
            [
                0x66, 0xe9, 0x4b, 0xd4, 0xef, 0x8a, 0x2c, 0x3b, 0x88, 0x4c, 0xfa, 0x59, 0xca, 0x34,
                0x2b, 0x2e
            ]
        );
    }
}
