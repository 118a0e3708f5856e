//! Stage-by-stage pipeline throughput: corpus generation, document
//! rendering + normalization, OCR digitization, and NLP tagging, plus
//! the two halves of the Stage I–II text path on the largest shard and
//! the Stage I kernels against their per-pixel specs.

use disengage_bench::timing;
use disengage_core::tagging::tag_records_traced;
use disengage_core::{RunConfig, RunSession};
use disengage_corpus::{CorpusConfig, CorpusGenerator};
use disengage_nlp::Classifier;
use disengage_ocr::engine::OcrEngine;
use disengage_ocr::raster::{self, rasterize, rasterize_line_into, Bitmap};
use disengage_ocr::{digitize_streamed, noise, NoiseModel, StreamScratch};
use disengage_obs::{Collector, ProvenanceLog};
use disengage_reports::normalize::{normalize_all, normalize_document_traced};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let corpus_cfg = CorpusConfig {
        seed: 0x5EED,
        scale: 0.1,
    };
    let corpus = CorpusGenerator::new(corpus_cfg).generate();
    let n_records = corpus.truth.disengagements().len() as u64;

    let mut g = timing::group("pipeline");
    g.sample_size(10).throughput_elements(n_records);
    g.bench("stage1_corpus_generation", || {
        CorpusGenerator::new(corpus_cfg).generate()
    });
    g.bench("stage2_normalization", || {
        normalize_all(corpus.documents.iter())
    });
    let classifier = Classifier::with_default_dictionary();
    g.bench("stage3_nlp_tagging", || {
        tag_records_traced(
            &classifier,
            corpus.truth.disengagements(),
            &[],
            1,
            &disengage_obs::Collector::new(),
            &disengage_obs::ProvenanceLog::disabled(),
            &disengage_par::TaskTimeline::disabled(),
        )
    });
    g.bench("end_to_end_passthrough", || {
        RunSession::new(RunConfig::new().with_corpus(corpus_cfg))
            .run()
            .expect("pipeline")
    });

    // The text path on the largest shard (bosch_2016: 1,442 records at
    // full scale): render the shard's filing, then parse it back, each
    // with the telemetry a session records.
    let full = CorpusGenerator::new(CorpusConfig {
        seed: 0x5EED,
        scale: 1.0,
    });
    let spec = full
        .shards()
        .into_iter()
        .find(|s| s.label() == "bosch_2016")
        .expect("bosch_2016 shard");
    let shard = full.generate_shard(&spec);
    let filing = &shard.documents[0];
    let mut g = timing::group("text_path");
    g.sample_size(20)
        .throughput_elements(shard.truth.disengagements().len() as u64);
    g.bench("generate_shard", || {
        full.generate_shard_with(&spec, &Collector::new())
    });
    g.bench("normalize_document", || {
        normalize_document_traced(
            filing,
            spec.doc_base,
            Some(&Collector::new()),
            &ProvenanceLog::disabled(),
        )
    });

    // OCR throughput on one representative document.
    let doc = corpus
        .documents
        .iter()
        .max_by_key(|d| d.text.len())
        .expect("documents exist");
    let chars = doc.text.chars().count() as u64;
    let page = rasterize(&doc.text);
    let mut rng = StdRng::seed_from_u64(7);
    let noisy = NoiseModel::light().degrade(&page, &mut rng);
    let engine = OcrEngine::new();
    let mut g = timing::group("ocr");
    g.sample_size(10).throughput_elements(chars);
    g.bench("rasterize_document", || rasterize(&doc.text));
    g.bench("recognize_document", || engine.recognize(&noisy));
    // The scanner-noise kernel against its per-pixel spec, same page
    // and seed (the outputs are bit-identical).
    g.bench("noise/spec", || {
        noise::spec::degrade(&NoiseModel::light(), &page, &mut StdRng::seed_from_u64(7))
    });
    g.bench("noise/word", || {
        NoiseModel::light().degrade(&page, &mut StdRng::seed_from_u64(7))
    });
    // One strip of the document's longest line, glyphs rebuilt from the
    // font patterns per character vs read from the packed-row table.
    let line = doc
        .text
        .lines()
        .max_by_key(|l| l.chars().count())
        .expect("document has lines");
    let mut strip = Bitmap::blank(0, 0);
    g.bench("rasterize_line/glyph_for", || {
        raster::spec::rasterize_line_into(line, page.width(), &mut strip)
    });
    g.bench("rasterize_line/table", || {
        rasterize_line_into(line, page.width(), &mut strip)
    });
    // The production Stage I digitizer end to end on the document.
    let mut scratch = StreamScratch::default();
    g.bench("digitize_streamed", || {
        digitize_streamed(
            &doc.text,
            &NoiseModel::light(),
            &engine,
            &mut scratch,
            &mut StdRng::seed_from_u64(7),
        )
    });
}
