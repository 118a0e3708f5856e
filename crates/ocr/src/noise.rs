//! Scanner-noise model.
//!
//! Real DMV filings are scans of printed (sometimes handwritten) pages;
//! the paper notes Tesseract failed outright on low-resolution scans.
//! This model reproduces the two dominant degradations of binarized
//! scans: salt (background speckle) and ink erosion (dropped dots), each
//! with an independent per-pixel probability.
//!
//! The production path ([`NoiseModel::apply`] and the strip-streamed
//! digitizer) runs [`RowNoise`], a kernel over the bitmap's packed
//! `u64` words. The per-pixel loops it replaced live on in [`spec`] as
//! the executable specification it is pinned to.

use crate::raster::Bitmap;
use rand::{Bernoulli, Rng};

/// Per-pixel degradation probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Probability that a background pixel turns to ink (speckle).
    pub salt: f64,
    /// Probability that an ink pixel drops out (erosion).
    pub erosion: f64,
    /// Probability that an ink pixel bleeds into its right neighbor
    /// (toner smear — merges adjacent strokes, the failure mode that
    /// turns `rn` into `m`).
    pub smear: f64,
}

impl NoiseModel {
    /// A clean scan: no degradation.
    pub fn clean() -> NoiseModel {
        NoiseModel {
            salt: 0.0,
            erosion: 0.0,
            smear: 0.0,
        }
    }

    /// A light office-scanner profile (~0.2% speckle, 1% erosion).
    pub fn light() -> NoiseModel {
        NoiseModel {
            salt: 0.002,
            erosion: 0.01,
            smear: 0.002,
        }
    }

    /// A poor low-resolution scan (~1% speckle, 6% erosion) — the regime
    /// where recognition starts failing and lines fall back to manual
    /// review.
    pub fn heavy() -> NoiseModel {
        NoiseModel {
            salt: 0.01,
            erosion: 0.06,
            smear: 0.01,
        }
    }

    /// Creates a model with explicit probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(salt: f64, erosion: f64) -> NoiseModel {
        NoiseModel::with_smear(salt, erosion, 0.0)
    }

    /// Creates a model with an explicit smear probability as well.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn with_smear(salt: f64, erosion: f64, smear: f64) -> NoiseModel {
        assert!(
            (0.0..=1.0).contains(&salt)
                && (0.0..=1.0).contains(&erosion)
                && (0.0..=1.0).contains(&smear),
            "noise probabilities must be in [0, 1]"
        );
        NoiseModel { salt, erosion, smear }
    }

    /// Applies the noise to a bitmap in place.
    ///
    /// Two row-major passes, each over the packed words (see
    /// [`RowNoise`]): first every smear draw against the pristine ink,
    /// then every flip draw. The draws, their order and the resulting
    /// pixels are exactly those of the per-pixel loops in [`spec`].
    pub fn apply<R: Rng + ?Sized>(&self, bmp: &mut Bitmap, rng: &mut R) {
        let kernel = RowNoise::new(self);
        kernel.smear(bmp, rng, |_, _| {});
        kernel.flip(bmp, rng);
    }

    /// Applies the noise to a copy of the bitmap.
    pub fn degrade<R: Rng + ?Sized>(&self, bmp: &Bitmap, rng: &mut R) -> Bitmap {
        let mut out = bmp.clone();
        self.apply(&mut out, rng);
        out
    }
}

/// A [`NoiseModel`] prepared for the word kernels: each nonzero
/// probability as its exact integer [`Bernoulli`], `None` where the
/// model never draws.
///
/// Both passes walk a row's words in ascending order and draw only
/// where the per-pixel spec draws, in ascending `x`, so the stream is
/// consumed draw for draw as [`spec::apply`] consumes it:
///
/// * **smear** — pixel `x` is a candidate when it is ink and `x + 1` is
///   not. Per word that is `w & !((w >> 1) | (next << 63))`, with
///   `next` the following word (or 0 past the row's end, where the spec
///   reads out-of-bounds white). One draw per candidate bit; the fired
///   bits, shifted left one, are ORed in once the word's candidates
///   are drawn, so every candidate is judged against pristine ink. A
///   bleed past the right edge is dropped, as `Bitmap::set` drops it.
/// * **flips** — with both salt and erosion on, every pixel below
///   `width` draws once, against the erosion threshold on ink and the
///   salt threshold on background; the fired bits fold into one XOR
///   mask per word. With one of them off, only the pixels the spec
///   draws for — background for salt, ink for erosion — are visited.
#[derive(Debug, Clone, Copy)]
pub struct RowNoise {
    salt: Option<Bernoulli>,
    erosion: Option<Bernoulli>,
    smear: Option<Bernoulli>,
}

/// `Some` Bernoulli for a probability that draws (`p > 0`).
fn coin(p: f64) -> Option<Bernoulli> {
    (p > 0.0).then(|| Bernoulli::new(p))
}

/// The bits of word `i` of a `width`-pixel row that hold pixels.
fn valid_bits(i: usize, width: usize) -> u64 {
    let rest = width - i * 64;
    if rest >= 64 {
        !0
    } else {
        (1u64 << rest) - 1
    }
}

/// Draws `coin` once per set bit of `candidates`, lowest bit first, and
/// returns the bits whose draw fired.
#[inline]
fn draw_bits<R: Rng + ?Sized>(mut candidates: u64, coin: Bernoulli, rng: &mut R) -> u64 {
    let mut fired = 0u64;
    while candidates != 0 {
        let bit = candidates & candidates.wrapping_neg();
        if coin.sample(rng) {
            fired |= bit;
        }
        candidates ^= bit;
    }
    fired
}

/// Draws once per pixel `0..n` of word `w`, lowest first, against
/// `erosion` on ink and `salt` on background, and returns the bits
/// whose draw fired. Each result is shifted in from the bottom of an
/// accumulator (`rev`), which reverses the word; one `reverse_bits` at
/// the end puts pixel 0 back at bit 0. That keeps the per-pixel work to
/// the draw, a compare and a shift.
#[inline(always)]
fn draw_each<R: Rng + ?Sized>(
    w: u64,
    n: u32,
    salt: Bernoulli,
    erosion: Bernoulli,
    rng: &mut R,
) -> u64 {
    let mut rev = 0u64;
    let mut ink = w;
    for _ in 0..n {
        let coin = if ink & 1 == 1 { erosion } else { salt };
        ink >>= 1;
        rev = rev << 1 | u64::from(coin.sample(rng));
    }
    rev.reverse_bits().checked_shr(64 - n).unwrap_or(0)
}

impl RowNoise {
    /// The kernel for `model`.
    pub fn new(model: &NoiseModel) -> RowNoise {
        RowNoise {
            salt: coin(model.salt),
            erosion: coin(model.erosion),
            smear: coin(model.smear),
        }
    }

    /// Whether the smear pass draws at all.
    pub fn smears(&self) -> bool {
        self.smear.is_some()
    }

    /// The smear pass over every row of `bmp`, top to bottom. `bled`
    /// sees each word the pass inked, as `(index into the bitmap's
    /// words, new ink bits)`, in ascending order — the strip-streamed
    /// digitizer records these to replay them on a re-rasterized strip.
    pub fn smear<R: Rng + ?Sized>(
        &self,
        bmp: &mut Bitmap,
        rng: &mut R,
        mut bled: impl FnMut(usize, u64),
    ) {
        let Some(smear) = self.smear else { return };
        let width = bmp.width();
        let per_row = bmp.words_per_row();
        for (y, row) in bmp.words_mut().chunks_exact_mut(per_row.max(1)).enumerate() {
            let mut carry = 0u64;
            for i in 0..row.len() {
                // `row[i]` and `row[i + 1]` are still pristine here:
                // only words before `i` have been written.
                let w = row[i];
                let next = row.get(i + 1).copied().unwrap_or(0);
                let candidates = w & !((w >> 1) | (next << 63));
                let fired = draw_bits(candidates, smear, rng);
                // A candidate's right neighbour is white, so a bleed
                // never lands on ink.
                let bleed = ((fired << 1) | carry) & valid_bits(i, width);
                carry = fired >> 63;
                if bleed != 0 {
                    row[i] = w | bleed;
                    bled(y * per_row + i, bleed);
                }
            }
        }
    }

    /// The flip pass over every row of `bmp`: erosion on ink, salt on
    /// background.
    pub fn flip<R: Rng + ?Sized>(&self, bmp: &mut Bitmap, rng: &mut R) {
        let (salt, erosion) = (self.salt, self.erosion);
        if salt.is_none() && erosion.is_none() {
            return;
        }
        let width = bmp.width();
        let per_row = bmp.words_per_row().max(1);
        for row in bmp.words_mut().chunks_exact_mut(per_row) {
            for (i, word) in row.iter_mut().enumerate() {
                let w = *word;
                let valid = valid_bits(i, width);
                *word = w ^ match (salt, erosion) {
                    (Some(salt), Some(erosion)) => {
                        draw_each(w, valid.count_ones(), salt, erosion, rng)
                    }
                    (Some(salt), None) => draw_bits(!w & valid, salt, rng),
                    (None, Some(erosion)) => draw_bits(w, erosion, rng),
                    (None, None) => 0,
                };
            }
        }
    }
}

/// The per-pixel noise loops the word kernels replaced, kept verbatim
/// as the executable specification [`RowNoise`] is pinned to (the
/// `noise_equivalence` suite asserts identical bitmaps and identical
/// RNG positions). Not used on any production path.
pub mod spec {
    use super::NoiseModel;
    use crate::raster::Bitmap;
    use rand::Rng;

    /// Per-pixel [`NoiseModel::apply`].
    pub fn apply<R: Rng + ?Sized>(model: &NoiseModel, bmp: &mut Bitmap, rng: &mut R) {
        if model.salt == 0.0 && model.erosion == 0.0 && model.smear == 0.0 {
            return;
        }
        // Smear first (reads the pristine ink), then flip pixels.
        if model.smear > 0.0 {
            let mut bleed = Vec::new();
            for y in 0..bmp.height() {
                for x in 0..bmp.width() {
                    if bmp.get(x, y) && !bmp.get(x + 1, y) && rng.gen_bool(model.smear) {
                        bleed.push((x + 1, y));
                    }
                }
            }
            for (x, y) in bleed {
                bmp.set(x, y, true);
            }
        }
        for y in 0..bmp.height() {
            for x in 0..bmp.width() {
                let ink = bmp.get(x, y);
                if ink {
                    if model.erosion > 0.0 && rng.gen_bool(model.erosion) {
                        bmp.set(x, y, false);
                    }
                } else if model.salt > 0.0 && rng.gen_bool(model.salt) {
                    bmp.set(x, y, true);
                }
            }
        }
    }

    /// Per-pixel [`NoiseModel::degrade`].
    pub fn degrade<R: Rng + ?Sized>(model: &NoiseModel, bmp: &Bitmap, rng: &mut R) -> Bitmap {
        let mut out = bmp.clone();
        apply(model, &mut out, rng);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raster::rasterize;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_is_identity() {
        let page = rasterize("HELLO WORLD");
        let mut rng = StdRng::seed_from_u64(1);
        let out = NoiseModel::clean().degrade(&page, &mut rng);
        assert_eq!(out, page);
    }

    #[test]
    fn erosion_removes_ink() {
        let page = rasterize("MMMMMMMMMM");
        let mut rng = StdRng::seed_from_u64(2);
        let out = NoiseModel::new(0.0, 0.5).degrade(&page, &mut rng);
        assert!(out.ink() < page.ink());
        assert!(out.ink() > 0); // not everything vanishes at 50%
    }

    #[test]
    fn salt_adds_ink() {
        let page = rasterize("          "); // blank page
        let mut rng = StdRng::seed_from_u64(3);
        let out = NoiseModel::new(0.1, 0.0).degrade(&page, &mut rng);
        assert!(out.ink() > 0);
        let expected = (page.width() * page.height()) as f64 * 0.1;
        let got = out.ink() as f64;
        assert!((got - expected).abs() < expected * 0.5, "got {got}, expected ~{expected}");
    }

    #[test]
    fn heavier_noise_flips_more() {
        let page = rasterize("CALIBRATION TARGET 0123456789");
        let mut r1 = StdRng::seed_from_u64(4);
        let mut r2 = StdRng::seed_from_u64(4);
        let light = NoiseModel::light().degrade(&page, &mut r1);
        let heavy = NoiseModel::heavy().degrade(&page, &mut r2);
        let diff = |a: &Bitmap, b: &Bitmap| {
            let mut d = 0;
            for y in 0..a.height() {
                for x in 0..a.width() {
                    if a.get(x, y) != b.get(x, y) {
                        d += 1;
                    }
                }
            }
            d
        };
        assert!(diff(&page, &heavy) > diff(&page, &light));
    }

    #[test]
    fn deterministic_under_seed() {
        let page = rasterize("SEEDED");
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let a = NoiseModel::heavy().degrade(&page, &mut r1);
        let b = NoiseModel::heavy().degrade(&page, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "noise probabilities must be in")]
    fn invalid_probability_panics() {
        NoiseModel::new(1.5, 0.0);
    }

    #[test]
    fn smear_adds_ink_rightward() {
        let page = rasterize("IIIII");
        let mut rng = StdRng::seed_from_u64(5);
        let out = NoiseModel::with_smear(0.0, 0.0, 1.0).degrade(&page, &mut rng);
        // Full smear: every ink pixel bleeds one to the right once.
        assert!(out.ink() > page.ink());
        // The original ink is untouched.
        for y in 0..page.height() {
            for x in 0..page.width() {
                if page.get(x, y) {
                    assert!(out.get(x, y));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "noise probabilities must be in")]
    fn invalid_smear_panics() {
        NoiseModel::with_smear(0.0, 0.0, 2.0);
    }
}
