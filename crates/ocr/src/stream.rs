//! Strip-streamed digitization: rasterize → degrade → recognize a page
//! one text line at a time.
//!
//! The monolithic path ([`crate::raster::rasterize`] +
//! [`crate::noise::NoiseModel::apply`] +
//! [`crate::engine::OcrEngine::recognize_lean`]) materializes the whole
//! page bitmap, so its peak memory scales with the *document* — and the
//! sharded pipeline's peak memory is exactly its largest document's
//! transients. This module produces byte-identical output while holding
//! only a single [`CELL_H`](crate::raster::CELL_H)-row strip (one text
//! line) at a time, so the digitizer's footprint scales with the page
//! *width*.
//!
//! # Why the noise stream survives the restructuring
//!
//! [`NoiseModel::apply`] consumes its RNG in two strict row-major
//! passes over the page: first every smear draw (one Bernoulli per
//! ink-pixel-with-white-right-neighbor, reading pristine ink), then
//! every flip draw (erosion on ink, salt on background). Smear bleeds
//! only horizontally and flips are pixel-local, so neither pass couples
//! pixel rows across a strip boundary. Replaying pass one over strips
//! in order, recording which bleeds fired, and then replaying pass two
//! over re-rasterized strips (bleeds re-applied first, as `apply` does
//! before its flip pass reads ink) draws the same Bernoullis in the
//! same order against the same pixel states — the degraded page is
//! reproduced strip for strip, bit for bit. Both passes run the same
//! word kernel as `apply` ([`RowNoise`]) on the strip's packed words.

use crate::engine::{LeanOcrOutput, OcrEngine, OcrScratch};
use crate::noise::{NoiseModel, RowNoise};
use crate::raster::{rasterize_line_into, Bitmap, CELL_W};
use rand::Rng;

/// Reusable buffers for [`digitize_streamed`] — one strip bitmap, the
/// engine's row scratch, and the recorded smear bleeds.
pub struct StreamScratch {
    strip: Bitmap,
    ocr: OcrScratch,
    /// `(strip, word, bits)`: the ink the smear pass bled into word
    /// `word` of strip `strip`'s bitmap, in draw order.
    bleed: Vec<(usize, usize, u64)>,
}

impl Default for StreamScratch {
    fn default() -> Self {
        StreamScratch {
            strip: Bitmap::blank(0, 0),
            ocr: OcrScratch::default(),
            bleed: Vec::new(),
        }
    }
}

/// Wall-clock spent in each sub-step of [`digitize_streamed_timed`],
/// accumulated across strips — the streamed path interleaves the
/// classic rasterize → degrade → recognize stages per line, so callers
/// that report per-phase profiles sum the slices instead of wrapping
/// each stage in one guard.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamTimings {
    /// Strip rasterization (both passes).
    pub rasterize: std::time::Duration,
    /// Smear scan, bleed replay, and pixel flips.
    pub degrade: std::time::Duration,
    /// Glyph matching and line assembly.
    pub correlate: std::time::Duration,
}

/// Digitizes `text` — rasterize, degrade with `noise`, recognize with
/// `engine` — line by line, returning exactly what
/// `engine.recognize_lean(&noise-degraded rasterize(text))` would, for
/// the same `rng` stream, without ever allocating the full page.
pub fn digitize_streamed<R: Rng + ?Sized>(
    text: &str,
    noise: &NoiseModel,
    engine: &OcrEngine,
    scratch: &mut StreamScratch,
    rng: &mut R,
) -> LeanOcrOutput {
    digitize_streamed_timed(text, noise, engine, scratch, rng, &mut StreamTimings::default())
}

/// [`digitize_streamed`] plus per-phase wall-clock accumulation into
/// `timings` (added to, not reset, so one `StreamTimings` can span a
/// batch).
pub fn digitize_streamed_timed<R: Rng + ?Sized>(
    text: &str,
    noise: &NoiseModel,
    engine: &OcrEngine,
    scratch: &mut StreamScratch,
    rng: &mut R,
    timings: &mut StreamTimings,
) -> LeanOcrOutput {
    // Page geometry, exactly as `rasterize_into` derives it: width from
    // the longest line, one blank strip for an empty document.
    let cols = text
        .lines()
        .map(|l| l.chars().count())
        .max()
        .unwrap_or(0)
        .max(1);
    let width = cols * CELL_W;
    let strips = text.lines().count().max(1);
    // `lines()` yields nothing for an empty document; the page still
    // has one (blank) strip.
    let strip_lines = || {
        text.lines()
            .chain(std::iter::repeat("").take(usize::from(text.is_empty())))
    };

    // Pass one — the smear scan. `NoiseModel::apply` draws every smear
    // Bernoulli (against pristine ink) before any flip draw, so the
    // streamed version must finish this pass over all strips before
    // pass two starts consuming the RNG.
    let kernel = RowNoise::new(noise);
    scratch.bleed.clear();
    if kernel.smears() {
        for (k, line) in strip_lines().enumerate() {
            let t0 = std::time::Instant::now();
            rasterize_line_into(line, width, &mut scratch.strip);
            let t1 = std::time::Instant::now();
            timings.rasterize += t1 - t0;
            let bleed = &mut scratch.bleed;
            kernel.smear(&mut scratch.strip, rng, |word, bits| {
                bleed.push((k, word, bits));
            });
            timings.degrade += t1.elapsed();
        }
    }

    // Pass two — re-rasterize each strip, re-apply its bleeds (the
    // flip pass must read post-smear ink), flip, and recognize the
    // strip as one text row.
    let mut out = String::with_capacity(text.len());
    let mut conf_sum = 0.0f64;
    let mut chars = 0usize;
    let mut bleed_next = 0;
    for (k, line) in strip_lines().enumerate() {
        let t0 = std::time::Instant::now();
        rasterize_line_into(line, width, &mut scratch.strip);
        let t1 = std::time::Instant::now();
        timings.rasterize += t1 - t0;
        let words = scratch.strip.words_mut();
        while let Some(&(strip, word, bits)) = scratch.bleed.get(bleed_next) {
            if strip != k {
                break;
            }
            words[word] |= bits;
            bleed_next += 1;
        }
        kernel.flip(&mut scratch.strip, rng);
        let t2 = std::time::Instant::now();
        timings.degrade += t2 - t1;
        engine.recognize_row_into(&scratch.strip, 0, cols, &mut scratch.ocr);
        out.push_str(scratch.ocr.line());
        for &c in scratch.ocr.line_conf() {
            conf_sum += c;
        }
        chars += scratch.ocr.line_conf().len();
        if k + 1 < strips {
            out.push('\n');
        }
        timings.correlate += t2.elapsed();
    }
    // Trim trailing blank lines, as the full-page recognizer does.
    while out.ends_with('\n') {
        out.pop();
    }
    LeanOcrOutput {
        text: out,
        conf_sum,
        chars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::rasterize;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The contract the module exists for: streamed output equals the
    /// monolithic rasterize → degrade → recognize path bit for bit —
    /// same text, same confidence sum — for the same seed, across
    /// noise profiles and awkward page shapes.
    #[test]
    fn streamed_digitization_matches_the_monolithic_path() {
        let texts = [
            "",
            "ONE LINE",
            "WATCHDOG ERROR 42\nDISENGAGE: PLANNER FROZE\nshort",
            "a much longer line padding the page out to its full width\nx\n\nlast",
            "trailing newline keeps no extra strip\n",
        ];
        let noises = [
            NoiseModel::clean(),
            NoiseModel::light(),
            NoiseModel::heavy(),
            NoiseModel::with_smear(0.0, 0.0, 0.05),
            NoiseModel::new(0.01, 0.0),
        ];
        let engine = OcrEngine::new();
        for (ti, text) in texts.iter().enumerate() {
            for (ni, noise) in noises.iter().enumerate() {
                for seed in [1u64, 77, 0xD0C5] {
                    let mut page = rasterize(text);
                    noise.apply(&mut page, &mut StdRng::seed_from_u64(seed));
                    let want = engine.recognize_lean(&page, &mut OcrScratch::default());

                    let got = digitize_streamed(
                        text,
                        noise,
                        &engine,
                        &mut StreamScratch::default(),
                        &mut StdRng::seed_from_u64(seed),
                    );
                    assert_eq!(got.text, want.text, "text {ti}, noise {ni}, seed {seed}");
                    assert_eq!(
                        got.conf_sum.to_bits(),
                        want.conf_sum.to_bits(),
                        "conf_sum must match bitwise (text {ti}, noise {ni}, seed {seed})"
                    );
                    assert_eq!(got.chars, want.chars);
                }
            }
        }
    }

    /// Scratch reuse across documents must not leak state between them.
    #[test]
    fn scratch_reuse_is_stateless() {
        let engine = OcrEngine::new();
        let noise = NoiseModel::heavy();
        let mut scratch = StreamScratch::default();
        let first = digitize_streamed(
            "AAAA BBBB CCCC\nDDDD",
            &noise,
            &engine,
            &mut scratch,
            &mut StdRng::seed_from_u64(9),
        );
        let _ = digitize_streamed(
            "completely different page\nwith more\nlines",
            &noise,
            &engine,
            &mut scratch,
            &mut StdRng::seed_from_u64(10),
        );
        let again = digitize_streamed(
            "AAAA BBBB CCCC\nDDDD",
            &noise,
            &engine,
            &mut scratch,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(first.text, again.text);
        assert_eq!(first.conf_sum.to_bits(), again.conf_sum.to_bits());
    }
}
