//! Pins the word-parallel Stage I kernels to their per-pixel specs.
//!
//! The scanner-noise kernel ([`disengage_ocr::noise::RowNoise`], behind
//! `NoiseModel::apply` and the strip-streamed digitizer) and the
//! glyph-row rasterizer must be pure speedups: the same pixels, the
//! same RNG draws in the same order, and so the same stream position
//! after every document. Any divergence would move recognized text,
//! confidences, and every downstream fingerprint.

use disengage_ocr::engine::scalar::ScalarEngine;
use disengage_ocr::font::glyph_for;
use disengage_ocr::noise::spec;
use disengage_ocr::raster::{self, glyph_rows, rasterize, rasterize_line_into, Bitmap};
use disengage_ocr::stream::digitize_streamed;
use disengage_ocr::{NoiseModel, OcrEngine, StreamScratch};
use rand::rngs::StdRng;
use rand::{Bernoulli, Rng, SeedableRng};

/// Every noise regime the kernel distinguishes: clean, each
/// probability alone, the pairs, all three, and the p = 1 edges.
fn profiles() -> Vec<(&'static str, NoiseModel)> {
    vec![
        ("clean", NoiseModel::clean()),
        ("light", NoiseModel::light()),
        ("heavy", NoiseModel::heavy()),
        ("salt-only", NoiseModel::new(0.01, 0.0)),
        ("erosion-only", NoiseModel::new(0.0, 0.06)),
        ("smear-only", NoiseModel::with_smear(0.0, 0.0, 0.05)),
        ("salt+erosion", NoiseModel::new(0.2, 0.3)),
        ("salt+smear", NoiseModel::with_smear(0.1, 0.0, 0.4)),
        ("erosion+smear", NoiseModel::with_smear(0.0, 0.2, 0.4)),
        ("salt=1", NoiseModel::new(1.0, 0.0)),
        ("erosion=1", NoiseModel::new(0.0, 1.0)),
        ("smear=1", NoiseModel::with_smear(0.0, 0.0, 1.0)),
        ("all=1", NoiseModel::with_smear(1.0, 1.0, 1.0)),
        ("salt=1,erosion=0.5", NoiseModel::new(1.0, 0.5)),
        ("tiny", NoiseModel::with_smear(1e-300, 5e-324, 1e-17)),
    ]
}

/// Text pages of awkward shapes: word-straddling widths (10, 11, 21
/// and 22 cells are 60, 66, 126 and 132 px), `—`, characters the font
/// does not cover, blank lines, and the empty document.
fn texts() -> Vec<String> {
    vec![
        String::new(),
        "\n".to_owned(),
        "A".to_owned(),
        "ABCDEFGHIJ".to_owned(),
        "ABCDEFGHIJK".to_owned(),
        "abcdefghijklmnopqrstu\nvwxyz0123456789.,/-—:;".to_owned(),
        "#()[]|\"'?!&=%+@*_ABCDEF\n\nshort — €uro ∑ tab\there".to_owned(),
        "1/4/16 — 1:25 PM — Leaf #1 (Alfa) — Software froze\nWATCHDOG ERROR 42\n".to_owned(),
        "———————————————————————".to_owned(),
        "€€€ ünïcödé ✓ only\n   ".to_owned(),
    ]
}

/// A seeded random bitmap: every pixel inked with probability `density`.
fn random_page(width: usize, height: usize, density: f64, rng: &mut StdRng) -> Bitmap {
    let mut bmp = Bitmap::blank(width, height);
    for y in 0..height {
        for x in 0..width {
            if rng.gen_bool(density) {
                bmp.set(x, y, true);
            }
        }
    }
    bmp
}

/// Applies `noise` with the kernel and with the spec from the same
/// seed; asserts identical bitmaps and an identical next draw.
fn assert_noise_agrees(page: &Bitmap, noise: &NoiseModel, seed: u64, what: &str) {
    let mut word_rng = StdRng::seed_from_u64(seed);
    let mut spec_rng = StdRng::seed_from_u64(seed);
    let mut word = page.clone();
    noise.apply(&mut word, &mut word_rng);
    let want = spec::degrade(noise, page, &mut spec_rng);
    assert_eq!(word, want, "bitmaps diverged: {what}");
    assert_eq!(
        word_rng.next_u64(),
        spec_rng.next_u64(),
        "RNG position diverged: {what}"
    );
}

#[test]
fn word_kernel_matches_the_spec_on_word_straddling_widths() {
    let mut pages = StdRng::seed_from_u64(0x5EED);
    for width in [0, 1, 5, 63, 64, 65, 127, 128, 129, 191, 200] {
        for height in [0, 1, 3, 10] {
            for density in [0.0, 0.05, 0.5, 0.95, 1.0] {
                let page = random_page(width, height, density, &mut pages);
                for (label, noise) in profiles() {
                    for seed in [1u64, 0xD0C5] {
                        let what =
                            format!("{width}×{height} density {density}, {label}, seed {seed}");
                        assert_noise_agrees(&page, &noise, seed, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn word_kernel_matches_the_spec_on_rasterized_pages() {
    for text in texts() {
        let page = rasterize(&text);
        for (label, noise) in profiles() {
            for seed in [3u64, 77, 0xD0C5] {
                assert_noise_agrees(
                    &page,
                    &noise,
                    seed,
                    &format!("{text:?}, {label}, seed {seed}"),
                );
            }
        }
    }
}

#[test]
fn word_kernel_matches_the_spec_on_seeded_random_probabilities() {
    let mut params = StdRng::seed_from_u64(0xF1A9);
    let page = rasterize("THE QUICK BROWN FOX — jumps over 13 lazy dogs\nMILEAGE car-0 1034.2");
    for round in 0..200 {
        let mut p = || match params.gen_range(0..4u8) {
            0 => 0.0,
            1 => 1.0,
            _ => params.gen::<f64>(),
        };
        let noise = NoiseModel::with_smear(p(), p(), p());
        assert_noise_agrees(&page, &noise, round, &format!("round {round}: {noise:?}"));
    }
}

#[test]
fn table_rasterizer_matches_the_spec() {
    let mut spec_page = Bitmap::blank(0, 0);
    let mut strip = Bitmap::blank(0, 0);
    let mut spec_strip = Bitmap::blank(0, 0);
    for text in texts() {
        raster::spec::rasterize_into(&text, &mut spec_page);
        assert_eq!(rasterize(&text), spec_page, "page diverged: {text:?}");
        let width = spec_page.width();
        for line in text.lines() {
            // Full width, and clipped narrower than the line.
            for w in [width, width / 2, 3] {
                rasterize_line_into(line, w, &mut strip);
                raster::spec::rasterize_line_into(line, w, &mut spec_strip);
                assert_eq!(strip, spec_strip, "strip diverged: {line:?} at width {w}");
            }
        }
    }
}

#[test]
fn glyph_table_matches_glyph_for_everywhere() {
    for ch in ('\0'..='\u{2FFF}').chain(['\u{FFFD}', '\u{1F600}']) {
        let want = glyph_for(ch).map(|g| {
            let mut rows = [0u8; 7];
            for (row, pixels) in rows.iter_mut().zip(&g.pixels) {
                for (c, &ink) in pixels.iter().enumerate() {
                    *row |= u8::from(ink) << c;
                }
            }
            rows
        });
        assert_eq!(glyph_rows(ch), want, "glyph table diverged at {ch:?}");
    }
}

/// The full per-pixel chain — spec rasterizer, spec noise, scalar
/// engine — as `(text, conf_sum, chars)`.
fn spec_digitize(text: &str, noise: &NoiseModel, rng: &mut StdRng) -> (String, f64, usize) {
    let mut page = Bitmap::blank(0, 0);
    raster::spec::rasterize_into(text, &mut page);
    spec::apply(noise, &mut page, rng);
    let out = ScalarEngine::new().recognize(&page);
    let conf_sum = out.confidences.iter().fold(0.0f64, |acc, &c| acc + c);
    (out.text, conf_sum, out.confidences.len())
}

#[test]
fn streamed_digitizer_matches_the_per_pixel_chain() {
    let engine = OcrEngine::new();
    let mut scratch = StreamScratch::default();
    for text in texts() {
        for (label, noise) in profiles() {
            for seed in [5u64, 0xD0C5] {
                let what = format!("{text:?}, {label}, seed {seed}");
                let mut stream_rng = StdRng::seed_from_u64(seed);
                let mut spec_rng = StdRng::seed_from_u64(seed);
                let got = digitize_streamed(&text, &noise, &engine, &mut scratch, &mut stream_rng);
                let (text_want, conf_want, chars_want) =
                    spec_digitize(&text, &noise, &mut spec_rng);
                assert_eq!(got.text, text_want, "text diverged: {what}");
                assert_eq!(
                    got.conf_sum.to_bits(),
                    conf_want.to_bits(),
                    "conf_sum bits diverged: {what}"
                );
                assert_eq!(got.chars, chars_want, "chars diverged: {what}");
                assert_eq!(
                    stream_rng.next_u64(),
                    spec_rng.next_u64(),
                    "RNG position diverged: {what}"
                );
            }
        }
    }
}

#[test]
fn integer_bernoulli_equals_gen_bool() {
    let mut ps = vec![0.0, 1.0, 0.5, 0.002, 0.01, 0.06, 5e-324, f64::MIN_POSITIVE];
    ps.extend([1.0f64.next_down(), 0.5f64.next_up(), 0.5f64.next_down()]);
    // On and beside the 2⁻⁵³ grid the draws are compared on.
    for k in [1u64, 2, 3, 1 << 40, (1 << 53) - 1] {
        let p = k as f64 / (1u64 << 53) as f64;
        ps.extend([p, p.next_down(), p.next_up()]);
    }
    let mut seeds = StdRng::seed_from_u64(0xB17);
    ps.extend((0..200).map(|_| seeds.gen::<f64>()));
    for p in ps {
        let coin = Bernoulli::new(p);
        let mut a = StdRng::seed_from_u64(p.to_bits() ^ 0x9E37);
        let mut b = a.clone();
        for _ in 0..5_000 {
            assert_eq!(coin.sample(&mut a), b.gen_bool(p), "p = {p:e}");
        }
        assert_eq!(a.next_u64(), b.next_u64(), "stream diverged at p = {p:e}");
    }
}
