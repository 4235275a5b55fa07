//! GPU AES-128 workloads: the leaky T-table kernel (Libgpucrypto style)
//! and a constant-access-pattern full-scan variant as negative control.

use super::tables::{expand_key, sbox, t_tables};
use crate::util::seeded_bytes;
use owl_core::TracedProgram;
use owl_gpu::build::{KernelBuilder, Val};
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, HostError};

/// Byte offsets of the lookup tables within the tables allocation:
/// `Te0 | Te1 | Te2 | Te3 | Sbox(u32)`.
const TE_OFF: [u64; 4] = [0, 1024, 2048, 3072];
const SBOX_OFF: u64 = 4096;
const TABLES_BYTES: usize = 5120;

/// How a round lookup reads the tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LookupStyle {
    /// Direct indexed load — address depends on the secret (leaky).
    Indexed,
    /// Scan the whole table and select — address trace is constant.
    Scan,
}

fn emit_lookup(
    b: &KernelBuilder,
    style: LookupStyle,
    tables: Val,
    table_off: u64,
    idx: Val,
) -> Val {
    match style {
        LookupStyle::Indexed => {
            let addr = b.add(b.add(tables, table_off), b.mul(idx, 4u64));
            b.load_global(addr, MemWidth::B4)
        }
        LookupStyle::Scan => {
            let acc = b.mov(0u64);
            let base = b.add(tables, table_off);
            b.for_range(0u64, 256u64, |b, i| {
                let v = b.load_global(b.add(base, b.mul(i, 4u64)), MemWidth::B4);
                let hit = b.setp(CmpOp::Eq, i, idx);
                let merged = b.sel(hit, v, acc);
                b.assign(acc, merged);
            });
            acc
        }
    }
}

/// Builds the AES-128 encryption kernel. One thread encrypts one 16-byte
/// block; the round keys are shared (the secret key is uniform across the
/// warp, as in Libgpucrypto).
pub(crate) fn build_kernel(name: &str, style: LookupStyle, rounds: u32) -> Kernel {
    assert!((1..=10).contains(&rounds), "AES-128 has 1..=10 rounds");
    let b = KernelBuilder::new(name);
    let tables = b.param(0);
    let rk = b.param(1);
    let pt = b.param(2);
    let ct = b.param(3);
    let n_blocks = b.param(4);
    let tid = b.special(SpecialReg::GlobalTid);
    // Guard excess lanes of the last warp (standard CUDA bounds check).
    let in_range = b.setp(CmpOp::LtU, tid, n_blocks);
    b.if_then(in_range, |b| {
        let block_base = b.add(pt, b.mul(tid, 16u64));

        // Initial AddRoundKey.
        let mut s: Vec<Val> = (0..4u64)
            .map(|i| {
                let w = b.load_global(b.add(block_base, i * 4), MemWidth::B4);
                let k = b.load_global(b.add(rk, i * 4), MemWidth::B4);
                b.xor(w, k)
            })
            .collect();

        // Main rounds.
        for round in 1..rounds {
            let mut t = Vec::with_capacity(4);
            for i in 0..4usize {
                let i0 = b.shr(s[i], 24u64);
                let i1 = b.and(b.shr(s[(i + 1) % 4], 16u64), 0xff_u64);
                let i2 = b.and(b.shr(s[(i + 2) % 4], 8u64), 0xff_u64);
                let i3 = b.and(s[(i + 3) % 4], 0xff_u64);
                let v0 = emit_lookup(b, style, tables, TE_OFF[0], i0);
                let v1 = emit_lookup(b, style, tables, TE_OFF[1], i1);
                let v2 = emit_lookup(b, style, tables, TE_OFF[2], i2);
                let v3 = emit_lookup(b, style, tables, TE_OFF[3], i3);
                let k = b.load_global(b.add(rk, (4 * round as u64 + i as u64) * 4), MemWidth::B4);
                t.push(b.xor(b.xor(b.xor(b.xor(v0, v1), v2), v3), k));
            }
            s = t;
        }

        // Final round: S-box bytes reassembled.
        let out_base = b.add(ct, b.mul(tid, 16u64));
        for i in 0..4usize {
            let i0 = b.shr(s[i], 24u64);
            let i1 = b.and(b.shr(s[(i + 1) % 4], 16u64), 0xff_u64);
            let i2 = b.and(b.shr(s[(i + 2) % 4], 8u64), 0xff_u64);
            let i3 = b.and(s[(i + 3) % 4], 0xff_u64);
            let b0 = emit_lookup(b, style, tables, SBOX_OFF, i0);
            let b1 = emit_lookup(b, style, tables, SBOX_OFF, i1);
            let b2 = emit_lookup(b, style, tables, SBOX_OFF, i2);
            let b3 = emit_lookup(b, style, tables, SBOX_OFF, i3);
            let word = b.or(
                b.or(b.shl(b0, 24u64), b.shl(b1, 16u64)),
                b.or(b.shl(b2, 8u64), b3),
            );
            let k = b.load_global(b.add(rk, (4 * rounds as u64 + i as u64) * 4), MemWidth::B4);
            b.store_global(b.add(out_base, i as u64 * 4), b.xor(word, k), MemWidth::B4);
        }
    });
    b.finish()
}

/// The lookup tables in the layout the kernel expects. Every encryption
/// uploads the same bytes, so they are serialised once.
fn tables_bytes() -> &'static [u8] {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let mut out = Vec::with_capacity(TABLES_BYTES);
        for &w in t_tables().iter().flatten() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        for &v in sbox().iter() {
            out.extend_from_slice(&u32::from(v).to_le_bytes());
        }
        out
    })
}

/// Shared host-side driver for both variants.
#[derive(Debug, Clone)]
struct AesWorkload {
    kernel: Kernel,
    /// Fixed public plaintext, `blocks * 16` bytes.
    plaintext: Vec<u8>,
    blocks: u32,
    rounds: u32,
}

impl AesWorkload {
    fn new(name: &str, style: LookupStyle, blocks: u32, rounds: u32) -> Self {
        AesWorkload {
            kernel: build_kernel(name, style, rounds),
            plaintext: seeded_bytes(0xAE5, blocks as usize * 16),
            blocks,
            rounds,
        }
    }

    /// Uploads state, launches, and reads the ciphertext back.
    fn encrypt(&self, dev: &mut Device, key: &[u8; 16]) -> Result<Vec<u8>, HostError> {
        let rk = expand_key(key);
        let n = self.blocks as usize;

        let tables = dev.malloc(TABLES_BYTES);
        dev.memcpy_h2d(tables, tables_bytes())?;

        let rk_buf = dev.malloc(44 * 4);
        let rk_bytes: Vec<u8> = rk.iter().flat_map(|w| w.to_le_bytes()).collect();
        dev.memcpy_h2d(rk_buf, &rk_bytes)?;

        // Plaintext words pre-swapped to big-endian state values.
        let pt_words: Vec<u8> = self
            .plaintext
            .chunks_exact(4)
            .flat_map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]).to_le_bytes())
            .collect();
        let pt = dev.malloc(n * 16);
        dev.memcpy_h2d(pt, &pt_words)?;
        let ct = dev.malloc(n * 16);

        dev.launch(
            &self.kernel,
            LaunchConfig::new(self.blocks.div_ceil(32), 32u32),
            &[
                tables.addr(),
                rk_buf.addr(),
                pt.addr(),
                ct.addr(),
                u64::from(self.blocks),
            ],
        )?;

        let mut raw = vec![0u8; n * 16];
        dev.memcpy_d2h(ct, &mut raw)?;
        // Swap state words back to bytes.
        Ok(raw
            .chunks_exact(4)
            .flat_map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]).to_be_bytes())
            .collect())
    }
}

/// The Libgpucrypto-style T-table AES-128 workload (leaky: table indices
/// are `key ⊕ plaintext` bytes).
#[derive(Debug, Clone)]
pub struct AesTTable(AesWorkload);

impl AesTTable {
    /// AES over `blocks` 16-byte blocks with a fixed public plaintext.
    pub fn new(blocks: u32) -> Self {
        AesTTable(AesWorkload::new(
            "aes128_ttable",
            LookupStyle::Indexed,
            blocks,
            10,
        ))
    }

    /// Encrypts on the device and returns the ciphertext (for tests).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn encrypt(&self, dev: &mut Device, key: &[u8; 16]) -> Result<Vec<u8>, HostError> {
        self.0.encrypt(dev, key)
    }

    /// The fixed public plaintext.
    pub fn plaintext(&self) -> &[u8] {
        &self.0.plaintext
    }
}

impl TracedProgram for AesTTable {
    type Input = [u8; 16];

    fn name(&self) -> &str {
        "libgpucrypto/aes128-ttable"
    }

    fn run(&self, device: &mut Device, key: &Self::Input) -> Result<(), HostError> {
        self.0.encrypt(device, key).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> Self::Input {
        let v = seeded_bytes(seed ^ 0xA15, 16);
        v.try_into().expect("16 bytes requested")
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

/// The constant-access-pattern AES variant: every lookup scans the whole
/// table and selects the hit lane-locally, so the address trace is
/// independent of the secret (the negative control for Owl).
#[derive(Debug, Clone)]
pub struct AesScan(AesWorkload);

impl AesScan {
    /// Full-round constant-access AES over `blocks` blocks.
    pub fn new(blocks: u32) -> Self {
        Self::with_rounds(blocks, 10)
    }

    /// Reduced-round variant (1..=10) — same access-pattern property, much
    /// cheaper to execute; useful in tests.
    pub fn with_rounds(blocks: u32, rounds: u32) -> Self {
        AesScan(AesWorkload::new(
            "aes128_scan",
            LookupStyle::Scan,
            blocks,
            rounds,
        ))
    }

    /// Encrypts on the device and returns the ciphertext (for tests).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn encrypt(&self, dev: &mut Device, key: &[u8; 16]) -> Result<Vec<u8>, HostError> {
        self.0.encrypt(dev, key)
    }

    /// Number of rounds this instance executes.
    pub fn rounds(&self) -> u32 {
        self.0.rounds
    }
}

impl TracedProgram for AesScan {
    type Input = [u8; 16];

    fn name(&self) -> &str {
        "libgpucrypto/aes128-scan"
    }

    fn run(&self, device: &mut Device, key: &Self::Input) -> Result<(), HostError> {
        self.0.encrypt(device, key).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> Self::Input {
        let v = seeded_bytes(seed ^ 0x5CA4, 16);
        v.try_into().expect("16 bytes requested")
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::tables::encrypt_block;

    fn reference(key: &[u8; 16], pt: &[u8]) -> Vec<u8> {
        let rk = expand_key(key);
        pt.chunks_exact(16)
            .flat_map(|c| encrypt_block(&rk, c.try_into().expect("16-byte block")))
            .collect()
    }

    #[test]
    fn ttable_kernel_matches_reference() {
        let aes = AesTTable::new(64);
        for key_seed in [0u64, 1, 99] {
            let key: [u8; 16] = seeded_bytes(key_seed, 16).try_into().expect("16");
            let mut dev = Device::new();
            let ct = aes.encrypt(&mut dev, &key).unwrap();
            assert_eq!(ct, reference(&key, aes.plaintext()), "seed {key_seed}");
        }
    }

    #[test]
    fn scan_kernel_matches_reference_full_rounds() {
        let aes = AesScan::new(32);
        let key: [u8; 16] = *b"owl-sca-detector";
        let mut dev = Device::new();
        let ct = aes.encrypt(&mut dev, &key).unwrap();
        assert_eq!(ct, reference(&key, &aes.0.plaintext));
    }

    #[test]
    fn variants_agree_with_each_other() {
        let a = AesTTable::new(32);
        let b = AesScan::new(32);
        let key = [7u8; 16];
        let mut d1 = Device::new();
        let mut d2 = Device::new();
        assert_eq!(
            a.encrypt(&mut d1, &key).unwrap(),
            b.encrypt(&mut d2, &key).unwrap()
        );
    }

    #[test]
    fn random_inputs_are_seed_deterministic() {
        let aes = AesTTable::new(32);
        assert_eq!(aes.random_input(5), aes.random_input(5));
        assert_ne!(aes.random_input(5), aes.random_input(6));
    }

    #[test]
    fn multi_warp_blocks() {
        // 48 blocks → 2 warps in 2 CTAs; still correct.
        let aes = AesTTable::new(48);
        let key = [0x42u8; 16];
        let mut dev = Device::new();
        let ct = aes.encrypt(&mut dev, &key).unwrap();
        assert_eq!(ct, reference(&key, aes.plaintext()));
    }
}
