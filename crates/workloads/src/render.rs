//! A glyph renderer: the browser-rendering side channel (paper §III-A).
//!
//! The rendering attacks the paper cites (Lee et al. S&P'14, "Rendered
//! Insecure" CCS'18) recover what a GPU drew — keystrokes, webpage text —
//! from the memory traffic of the renderer. This workload reproduces the
//! mechanism: a kernel blits secret text from a public font-atlas
//! *texture*; the texel coordinates fetched are a direct function of the
//! glyph ids, so the texture-access trace spells out the text.

use crate::util::rng;
use owl_core::TracedProgram;
use owl_gpu::build::KernelBuilder;
use owl_gpu::grid::LaunchConfig;
use owl_gpu::isa::{CmpOp, MemWidth, SpecialReg};
use owl_gpu::Kernel;
use owl_host::{Device, HostError};
use rand::Rng;

/// Glyphs in the atlas.
pub const GLYPHS: usize = 16;
/// Glyph side in texels.
pub const GLYPH: usize = 8;
/// Characters per rendered line.
pub const TEXT_LEN: usize = 8;

/// The public font atlas: `GLYPHS` glyphs of `GLYPH×GLYPH` texels laid out
/// horizontally; glyph `g` occupies columns `g·GLYPH ..`.
pub fn font_atlas() -> Vec<u8> {
    let (w, h) = (GLYPHS * GLYPH, GLYPH);
    let mut atlas = vec![0u8; w * h];
    for g in 0..GLYPHS {
        for y in 0..GLYPH {
            for x in 0..GLYPH {
                // A distinct, deterministic pattern per glyph.
                let on = (x + y * 3 + g * 5) % (g + 2) == 0;
                atlas[y * w + g * GLYPH + x] = if on { 255 } else { 16 };
            }
        }
    }
    atlas
}

fn build_blit_kernel() -> Kernel {
    let b = KernelBuilder::new("glyph_blit");
    let text = b.param(0);
    let fb = b.param(1);
    let n_pixels = b.param(2);
    let tid = b.special(SpecialReg::GlobalTid);
    let guard = b.setp(CmpOp::LtU, tid, n_pixels);
    b.if_then(guard, |b| {
        let line_w = (TEXT_LEN * GLYPH) as u64;
        let px = b.rem(tid, line_w);
        let py = b.div(tid, line_w);
        // Which character cell this pixel belongs to (public geometry)…
        let cell = b.div(px, GLYPH as u64);
        // …and the secret glyph drawn there.
        let glyph = b.load_global(b.add(text, cell), MemWidth::B1);
        // The leaking fetch: the atlas x coordinate carries the glyph id.
        let tex_x = b.add(b.mul(glyph, GLYPH as u64), b.rem(px, GLYPH as u64));
        let texel = b.tex2d(0, tex_x, py);
        b.store_global(b.add(fb, tid), texel, MemWidth::B1);
    });
    b.finish()
}

/// The glyph-blit workload; the secret is the rendered text.
#[derive(Debug, Clone)]
pub struct GlyphRender {
    kernel: Kernel,
    atlas: Vec<u8>,
}

impl GlyphRender {
    /// A renderer over the default [`font_atlas`].
    pub fn new() -> Self {
        GlyphRender {
            kernel: build_blit_kernel(),
            atlas: font_atlas(),
        }
    }

    /// Renders `text` and returns the framebuffer
    /// (`TEXT_LEN·GLYPH × GLYPH` bytes, row-major).
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    ///
    /// # Panics
    ///
    /// Panics when `text` is not `TEXT_LEN` glyph ids `< GLYPHS`.
    pub fn render(&self, dev: &mut Device, text: &[u8]) -> Result<Vec<u8>, HostError> {
        assert_eq!(text.len(), TEXT_LEN, "text length");
        assert!(text.iter().all(|&g| (g as usize) < GLYPHS), "glyph range");
        dev.bind_texture((GLYPHS * GLYPH) as u32, GLYPH as u32, &self.atlas);
        let t = dev.malloc(TEXT_LEN);
        dev.memcpy_h2d(t, text)?;
        let n_pixels = TEXT_LEN * GLYPH * GLYPH;
        let fb = dev.malloc(n_pixels);
        dev.launch(
            &self.kernel,
            LaunchConfig::new((n_pixels as u32).div_ceil(64), 64u32),
            &[t.addr(), fb.addr(), n_pixels as u64],
        )?;
        let mut out = vec![0u8; n_pixels];
        dev.memcpy_d2h(fb, &mut out)?;
        Ok(out)
    }

    /// Host reference blit.
    pub fn reference(&self, text: &[u8]) -> Vec<u8> {
        let line_w = TEXT_LEN * GLYPH;
        let atlas_w = GLYPHS * GLYPH;
        let mut out = vec![0u8; line_w * GLYPH];
        for py in 0..GLYPH {
            for px in 0..line_w {
                let glyph = text[px / GLYPH] as usize;
                out[py * line_w + px] = self.atlas[py * atlas_w + glyph * GLYPH + px % GLYPH];
            }
        }
        out
    }
}

impl Default for GlyphRender {
    fn default() -> Self {
        Self::new()
    }
}

impl TracedProgram for GlyphRender {
    type Input = Vec<u8>;

    fn name(&self) -> &str {
        "render/glyph-blit"
    }

    fn run(&self, device: &mut Device, text: &Vec<u8>) -> Result<(), HostError> {
        self.render(device, text).map(|_| ())
    }

    fn random_input(&self, seed: u64) -> Vec<u8> {
        let mut r = rng(seed ^ 0x417A5);
        (0..TEXT_LEN)
            .map(|_| r.gen_range(0..GLYPHS as u8))
            .collect()
    }

    fn deterministic_host(&self) -> bool {
        true // audited: `run` has no per-run host state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_blit_matches_reference() {
        let r = GlyphRender::new();
        for seed in 0..4 {
            let text = r.random_input(seed);
            let got = r.render(&mut Device::new(), &text).unwrap();
            assert_eq!(got, r.reference(&text), "seed {seed}");
        }
    }

    #[test]
    fn different_texts_render_differently() {
        let r = GlyphRender::new();
        let a = r.render(&mut Device::new(), &[0; TEXT_LEN]).unwrap();
        let b = r.render(&mut Device::new(), &[1; TEXT_LEN]).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "glyph range")]
    fn out_of_range_glyphs_rejected() {
        let r = GlyphRender::new();
        let _ = r.render(&mut Device::new(), &[99; TEXT_LEN]);
    }
}
