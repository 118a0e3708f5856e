//! Allocation ceiling for the Stage I OCR path — a perf gate that reads
//! the same on every machine.
//!
//! The strip-streamed digitizer reuses one scratch (strip bitmap, row
//! cells, bleed list) across documents and presizes its output, and the
//! dictionary corrector's bounded query runs its edit-distance corridor
//! on stack rows with one reused buffer for the word's chars. What is
//! left per document is its own output: the recognized text, the
//! corrected copy, the per-attempt counts and one `String` per repaired
//! word. The ceiling leaves room for that and for amortized growth, but
//! not for one allocation per vocabulary candidate or per text row.

use disengage::core::pipeline::default_corrector;
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::obs::profile::alloc_stats;
use disengage::obs::CountingAlloc;
use disengage::ocr::{digitize_streamed, NoiseModel, OcrEngine, StreamScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ceiling on digitize + correct allocations per document (measured
/// 19.9, over half of it the two `String`s of each audited repair: one
/// more allocation per document fails it).
const PER_DOCUMENT: f64 = 20.0;

// One test function: the counting allocator is process-wide, so a
// second test running on another thread would leak into the counts.
#[test]
fn ocr_path_allocations_per_document_stay_under_the_ceiling() {
    let engine = OcrEngine::new();
    let corrector = default_corrector();
    let noise = NoiseModel::light();
    let mut scratch = StreamScratch::default();
    let (mut docs, mut calls, mut repairs) = (0usize, 0u64, 0u64);
    for seed in [3u64, 21] {
        let corpus = CorpusGenerator::new(CorpusConfig { seed, scale: 0.05 }).generate();
        for (i, doc) in corpus.documents.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(rand::derive_seed(0xD0C5, i as u64));
            let before = alloc_stats().calls;
            let recognized = digitize_streamed(&doc.text, &noise, &engine, &mut scratch, &mut rng);
            let (_fixed, hits) = corrector.correct_text_bounded(&recognized.text, 1);
            calls += alloc_stats().calls - before;
            repairs += hits.iter().sum::<u64>();
            docs += 1;
        }
    }
    // Non-vacuous: a real corpus whose noise the corrector repairs, and
    // a counting allocator.
    assert!(docs >= 40, "only {docs} documents");
    assert!(repairs > 0, "the corrector repaired nothing");
    assert!(calls > 0, "counting allocator not installed");

    let per_document = calls as f64 / docs as f64;
    eprintln!("ocr path: {calls} allocations over {docs} documents ({per_document:.2}/document, {repairs} repairs)");
    assert!(
        per_document <= PER_DOCUMENT,
        "digitize + correct made {per_document:.2} allocations per document (ceiling {PER_DOCUMENT})"
    );
}
