//! Rasterization: text → monochrome page bitmap on a fixed character
//! grid.

use crate::font::{glyph_for, GLYPH_H, GLYPH_W};
use std::sync::OnceLock;

/// Horizontal pitch of a character cell (glyph + 1px gap).
pub const CELL_W: usize = GLYPH_W + 1;
/// Vertical pitch of a text line (glyph + 3px leading).
pub const CELL_H: usize = GLYPH_H + 3;

/// A monochrome bitmap, row-major, `true` = ink.
///
/// Pixels are stored bit-packed, 64 per `u64` word, with each pixel
/// row padded out to a whole word. A page bitmap is the largest
/// transient the digitizer allocates — it scales with the biggest
/// document in a shard — so the 8× saving over byte-per-pixel storage
/// is what keeps per-shard peak memory flat as the corpus grows.
/// Padding bits past `width` are kept zero by every mutator, so
/// word-level operations (`ink`, equality) need no masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    /// Words per pixel row: `ceil(width / 64)`.
    words_per_row: usize,
    words: Vec<u64>,
}

impl Bitmap {
    /// An all-white bitmap.
    pub fn blank(width: usize, height: usize) -> Bitmap {
        let words_per_row = width.div_ceil(64);
        Bitmap {
            width,
            height,
            words_per_row,
            words: vec![0; words_per_row * height],
        }
    }

    /// Resets this bitmap to an all-white `width × height` page,
    /// reusing the existing word buffer. This is the scratch-reuse
    /// path of the digitizer: one bitmap serves every document a
    /// worker processes instead of a fresh allocation per page.
    pub fn reset(&mut self, width: usize, height: usize) {
        self.width = width;
        self.height = height;
        self.words_per_row = width.div_ceil(64);
        self.words.clear();
        self.words.resize(self.words_per_row * height, 0);
    }

    /// Up to 64 pixels of row `y` starting at `x0`, packed with bit
    /// `i` carrying pixel `x0 + i`. Out-of-bounds pixels read white,
    /// exactly like [`Bitmap::get`]. `n` must be at most 64.
    fn row_bits(&self, y: usize, x0: usize, n: usize) -> u64 {
        debug_assert!(n <= 64);
        if y >= self.height || x0 >= self.width {
            return 0;
        }
        let base = y * self.words_per_row;
        let wi = x0 >> 6;
        let off = x0 & 63;
        let lo = self.words[base + wi] >> off;
        let hi = if off > 0 && wi + 1 < self.words_per_row {
            self.words[base + wi + 1] << (64 - off)
        } else {
            0
        };
        let avail = (self.width - x0).min(n);
        let bits = lo | hi;
        if avail >= 64 {
            bits
        } else {
            bits & ((1u64 << avail) - 1)
        }
    }

    /// Words per pixel row (`ceil(width / 64)`).
    pub(crate) fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed pixels: row-major, bit `x & 63` of word
    /// `y · words_per_row + x / 64` carrying pixel `(x, y)`. Callers
    /// must keep the padding bits past `width` zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The pixel at `(x, y)`; out-of-bounds reads are white.
    pub fn get(&self, x: usize, y: usize) -> bool {
        if x < self.width && y < self.height {
            self.words[y * self.words_per_row + (x >> 6)] >> (x & 63) & 1 == 1
        } else {
            false
        }
    }

    /// Sets the pixel at `(x, y)` (out-of-bounds writes are ignored).
    pub fn set(&mut self, x: usize, y: usize, ink: bool) {
        if x < self.width && y < self.height {
            let w = &mut self.words[y * self.words_per_row + (x >> 6)];
            if ink {
                *w |= 1 << (x & 63);
            } else {
                *w &= !(1 << (x & 63));
            }
        }
    }

    /// Total inked pixels.
    pub fn ink(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Flips the pixel at `(x, y)`.
    pub fn flip(&mut self, x: usize, y: usize) {
        if x < self.width && y < self.height {
            self.words[y * self.words_per_row + (x >> 6)] ^= 1 << (x & 63);
        }
    }

    /// Renders as ASCII art (`#` ink, `.` background) — debugging aid.
    pub fn to_ascii(&self) -> String {
        let mut out = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                out.push(if self.get(x, y) { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

/// One glyph's pixel rows, bit `c` of entry `r` carrying pixel
/// `(c, r)` — the form [`stamp`] ORs into a page row's words.
pub type GlyphRows = [u8; GLYPH_H];

/// The packed rows of every glyph the font covers, built once. The font
/// covers only ASCII characters and `—`, so an ASCII-indexed array plus
/// one slot is the whole table.
struct GlyphTable {
    ascii: [Option<GlyphRows>; 128],
    em_dash: Option<GlyphRows>,
}

/// `ch`'s glyph split into rows: row `r` is bits `5r .. 5r + 5` of
/// [`crate::font::Glyph::packed`].
fn pack_rows(ch: char) -> Option<GlyphRows> {
    let bits = glyph_for(ch)?.packed();
    Some(std::array::from_fn(|r| {
        (bits >> (r * GLYPH_W)) as u8 & ((1 << GLYPH_W) - 1)
    }))
}

/// The packed glyph rows for `ch` — exactly [`glyph_for`]`(ch)`'s
/// pixels, from a table built on first use instead of re-parsed from the
/// font's pattern strings for every character.
pub fn glyph_rows(ch: char) -> Option<GlyphRows> {
    static TABLE: OnceLock<GlyphTable> = OnceLock::new();
    let table = TABLE.get_or_init(|| GlyphTable {
        ascii: std::array::from_fn(|i| pack_rows(char::from(i as u8))),
        em_dash: pack_rows('—'),
    });
    match ch {
        '\0'..='\x7f' => table.ascii[ch as usize],
        '—' => table.em_dash,
        _ => None,
    }
}

/// ORs `glyph` into the cell whose top-left pixel is `(ox, oy)`. A glyph
/// row is 5 bits, so it lands in one word or spills its high bits into
/// the next, which exists whenever the glyph fits the width. A glyph
/// that does not fit is clipped pixel by pixel, as `Bitmap::set` clips.
fn stamp(bmp: &mut Bitmap, ox: usize, oy: usize, glyph: &GlyphRows) {
    if ox + GLYPH_W > bmp.width {
        for (gy, &bits) in glyph.iter().enumerate() {
            for gx in (0..GLYPH_W).filter(|&gx| bits >> gx & 1 == 1) {
                bmp.set(ox + gx, oy + gy, true);
            }
        }
        return;
    }
    let (wi, off) = (ox >> 6, ox & 63);
    for (gy, &bits) in glyph.iter().enumerate() {
        let base = (oy + gy) * bmp.words_per_row + wi;
        let bits = u64::from(bits);
        bmp.words[base] |= bits << off;
        if off > 64 - GLYPH_W {
            bmp.words[base + 1] |= bits >> (64 - off);
        }
    }
}

/// Stamps every covered character of `line` into text row `row`.
fn stamp_line(bmp: &mut Bitmap, line: &str, row: usize) {
    for (col, ch) in line.chars().enumerate() {
        if let Some(glyph) = glyph_rows(ch) {
            stamp(bmp, col * CELL_W, row * CELL_H, &glyph);
        }
    }
}

/// Rasterizes multi-line text onto a page bitmap.
///
/// Each character occupies a fixed `CELL_W × CELL_H` cell; characters the
/// font does not cover render as blank cells (and will be recognized as
/// spaces — the lossy path real OCR hits on unusual symbols). Tabs are
/// not expanded; trailing newlines produce no extra line.
pub fn rasterize(text: &str) -> Bitmap {
    let mut bmp = Bitmap::blank(0, 0);
    rasterize_into(text, &mut bmp);
    bmp
}

/// [`rasterize`] into a caller-owned bitmap, reusing its pixel buffer.
/// The result is identical to `*bmp = rasterize(text)`; only the
/// allocation is saved.
pub fn rasterize_into(text: &str, bmp: &mut Bitmap) {
    let cols = text.lines().map(|l| l.chars().count()).max().unwrap_or(0);
    let rows = text.lines().count();
    bmp.reset(cols.max(1) * CELL_W, rows.max(1) * CELL_H);
    for (row, line) in text.lines().enumerate() {
        stamp_line(bmp, line, row);
    }
}

/// Rasterizes a single text line as one `CELL_H`-row strip of a page
/// whose total pixel width is `width` (the full page's width, so short
/// lines keep their right-hand blank padding). Strip `k` of
/// [`rasterize`]'s page — pixel rows `k·CELL_H .. (k+1)·CELL_H` — is
/// bit-identical to `rasterize_line_into(lines[k], width, ...)`, which
/// is what lets the streamed digitizer process a document one line at
/// a time without ever holding the whole page.
pub fn rasterize_line_into(line: &str, width: usize, bmp: &mut Bitmap) {
    bmp.reset(width, CELL_H);
    stamp_line(bmp, line, 0);
}

/// The per-pixel rasterizer the glyph-row table replaced — each
/// character's glyph rebuilt by [`glyph_for`] and set pixel by pixel —
/// kept as the executable specification [`rasterize_into`] and
/// [`rasterize_line_into`] are pinned to. Not used on any production
/// path.
pub mod spec {
    use super::{Bitmap, CELL_H, CELL_W};
    use crate::font::glyph_for;

    /// Per-pixel [`super::rasterize_into`].
    pub fn rasterize_into(text: &str, bmp: &mut Bitmap) {
        let lines: Vec<&str> = text.lines().collect();
        let cols = lines.iter().map(|l| l.chars().count()).max().unwrap_or(0);
        bmp.reset(cols.max(1) * CELL_W, lines.len().max(1) * CELL_H);
        for (row, line) in lines.iter().enumerate() {
            for (col, ch) in line.chars().enumerate() {
                if let Some(g) = glyph_for(ch) {
                    let ox = col * CELL_W;
                    let oy = row * CELL_H;
                    for (gy, grow) in g.pixels.iter().enumerate() {
                        for (gx, &ink) in grow.iter().enumerate() {
                            if ink {
                                bmp.set(ox + gx, oy + gy, true);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Per-pixel [`super::rasterize_line_into`].
    pub fn rasterize_line_into(line: &str, width: usize, bmp: &mut Bitmap) {
        bmp.reset(width, CELL_H);
        for (col, ch) in line.chars().enumerate() {
            if let Some(g) = glyph_for(ch) {
                let ox = col * CELL_W;
                for (gy, grow) in g.pixels.iter().enumerate() {
                    for (gx, &ink) in grow.iter().enumerate() {
                        if ink {
                            bmp.set(ox + gx, gy, true);
                        }
                    }
                }
            }
        }
    }
}

/// The number of text rows and columns a page bitmap holds.
pub fn grid_dims(bmp: &Bitmap) -> (usize, usize) {
    (bmp.height() / CELL_H, bmp.width() / CELL_W)
}

/// Extracts the glyph-sized window of a cell at text position
/// `(row, col)` as a flat pixel vector (length `GLYPH_W * GLYPH_H`).
pub fn cell_pixels(bmp: &Bitmap, row: usize, col: usize) -> Vec<bool> {
    let ox = col * CELL_W;
    let oy = row * CELL_H;
    let mut out = Vec::with_capacity(GLYPH_W * GLYPH_H);
    for y in 0..GLYPH_H {
        for x in 0..GLYPH_W {
            out.push(bmp.get(ox + x, oy + y));
        }
    }
    out
}

/// [`cell_pixels`] bit-packed: the glyph-sized window of cell
/// `(row, col)` as a single `u64` with bit `y·GLYPH_W + x` carrying
/// pixel `(x, y)` of the window — the layout of
/// [`crate::font::Glyph::packed`], so `cell & glyph` ANDs overlapping
/// ink. Out-of-bounds reads are white, exactly like [`cell_pixels`].
pub fn cell_packed(bmp: &Bitmap, row: usize, col: usize) -> u64 {
    let ox = col * CELL_W;
    let oy = row * CELL_H;
    let mut bits = 0u64;
    for y in 0..GLYPH_H {
        for x in 0..GLYPH_W {
            if bmp.get(ox + x, oy + y) {
                bits |= 1 << (y * GLYPH_W + x);
            }
        }
    }
    bits
}

/// Packs every cell of text row `row` in one pass: `out[col]` ends up
/// equal to [`cell_packed`]`(bmp, row, col)` for `col` in `0..cols`.
///
/// The page is walked pixel-row-major — each of the window's
/// [`GLYPH_H`] pixel rows is read once, left to right, across all
/// columns — so extraction is sequential in memory (cache-friendly)
/// instead of striding down the page once per cell the way per-cell
/// extraction does. A cell inside the width takes its 5 bits straight
/// from the row's words (from one word, or spilling into the next, as
/// [`stamp`] writes them); columns past the width read white or
/// clipped through `row_bits`.
pub fn pack_cell_row(bmp: &Bitmap, row: usize, cols: usize, out: &mut Vec<u64>) {
    out.clear();
    out.resize(cols, 0);
    let inside = cols.min(bmp.width / CELL_W);
    let oy = row * CELL_H;
    for gy in 0..GLYPH_H {
        let y = oy + gy;
        if y >= bmp.height() {
            break;
        }
        let shift = gy * GLYPH_W;
        let words = &bmp.words[y * bmp.words_per_row..(y + 1) * bmp.words_per_row];
        for (col, cell) in out[..inside].iter_mut().enumerate() {
            let ox = col * CELL_W;
            let (wi, off) = (ox >> 6, ox & 63);
            let mut bits = words[wi] >> off;
            if off > 64 - GLYPH_W {
                bits |= words[wi + 1] << (64 - off);
            }
            *cell |= (bits & ((1 << GLYPH_W) - 1)) << shift;
        }
        for (col, cell) in out.iter_mut().enumerate().skip(inside) {
            *cell |= bmp.row_bits(y, col * CELL_W, GLYPH_W) << shift;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blank_page_for_empty_text() {
        let b = rasterize("");
        assert_eq!(b.ink(), 0);
        assert!(b.width() >= CELL_W && b.height() >= CELL_H);
    }

    #[test]
    fn single_char_has_expected_ink() {
        let b = rasterize("A");
        let g = glyph_for('A').unwrap();
        assert_eq!(b.ink(), g.ink());
    }

    #[test]
    fn spaces_are_blank_cells() {
        let a = rasterize("A A");
        let (rows, cols) = grid_dims(&a);
        assert_eq!((rows, cols), (1, 3));
        let middle = cell_pixels(&a, 0, 1);
        assert!(middle.iter().all(|&p| !p));
    }

    #[test]
    fn multiline_grid() {
        let b = rasterize("AB\nC");
        let (rows, cols) = grid_dims(&b);
        assert_eq!((rows, cols), (2, 2));
        // 'C' sits at row 1, col 0.
        let c_cell = cell_pixels(&b, 1, 0);
        let c_glyph: Vec<bool> = glyph_for('C')
            .unwrap()
            .pixels
            .iter()
            .flatten()
            .copied()
            .collect();
        assert_eq!(c_cell, c_glyph);
    }

    #[test]
    fn packed_cells_match_flat_cells() {
        use rand::SeedableRng;
        // Wide enough for cells to straddle words, with speckle in the
        // gap columns the packed cells must leave out.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let b = crate::noise::NoiseModel::new(0.3, 0.1).degrade(
            &rasterize("Ab3 —\nz? 8% THE QUICK BROWN FOX — 0123456789"),
            &mut rng,
        );
        let (rows, cols) = grid_dims(&b);
        let mut row_cells = Vec::new();
        // Two columns and a row past the grid read white.
        for row in 0..rows + 1 {
            pack_cell_row(&b, row, cols + 2, &mut row_cells);
            assert_eq!(row_cells.len(), cols + 2);
            for col in 0..cols + 2 {
                let flat = cell_pixels(&b, row, col);
                let packed = cell_packed(&b, row, col);
                assert_eq!(packed, row_cells[col], "({row},{col})");
                for (i, &p) in flat.iter().enumerate() {
                    assert_eq!(packed >> i & 1 == 1, p, "({row},{col}) bit {i}");
                }
                assert_eq!(packed.count_ones() as usize, flat.iter().filter(|&&p| p).count());
            }
        }
    }

    #[test]
    fn packed_cells_out_of_bounds_read_white() {
        let b = rasterize("A");
        // Cells past the grid are all white in both representations.
        assert_eq!(cell_packed(&b, 5, 9), 0);
        assert!(cell_pixels(&b, 5, 9).iter().all(|&p| !p));
    }

    #[test]
    fn rasterize_into_reuses_and_matches() {
        let mut scratch = rasterize("SOMETHING LONG ENOUGH TO SHRINK FROM");
        rasterize_into("AB\nC", &mut scratch);
        assert_eq!(scratch, rasterize("AB\nC"));
        rasterize_into("", &mut scratch);
        assert_eq!(scratch, rasterize(""));
    }

    #[test]
    fn uncovered_chars_render_blank() {
        let b = rasterize("€");
        assert_eq!(b.ink(), 0);
    }

    #[test]
    fn get_set_flip_bounds() {
        let mut b = Bitmap::blank(4, 4);
        b.set(1, 1, true);
        assert!(b.get(1, 1));
        b.flip(1, 1);
        assert!(!b.get(1, 1));
        // Out of bounds: no panic, reads white.
        b.set(100, 100, true);
        b.flip(100, 100);
        assert!(!b.get(100, 100));
        assert_eq!(b.ink(), 0);
    }

    #[test]
    fn ascii_art_shape() {
        let b = rasterize("I");
        let art = b.to_ascii();
        assert_eq!(art.lines().count(), b.height());
        assert!(art.contains('#'));
    }
}
