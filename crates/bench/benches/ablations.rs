//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * NLP classifier with/without stemming+stop-words (normalization),
//! * OCR with/without dictionary post-correction, under light and heavy
//!   noise,
//! * phrase-bonus voting vs plain keyword counting (dictionary size
//!   sensitivity via a truncated dictionary),
//! * the compiled, interned-token classifier vs its string-set
//!   reference (`nlp::vote::spec`),
//! * the damped-Newton Exponentiated-Weibull fit vs its Nelder–Mead
//!   reference (`stats::fit::spec`).

use disengage_bench::timing;
use disengage_core::constants::REACTION_OUTLIER_CUTOFF_S;
use disengage_core::pipeline::default_corrector;
use disengage_corpus::{CorpusConfig, CorpusGenerator};
use disengage_nlp::vote::spec::SpecClassifier;
use disengage_nlp::{Classifier, FailureDictionary, FaultTag};
use disengage_ocr::engine::OcrEngine;
use disengage_ocr::raster::rasterize;
use disengage_ocr::NoiseModel;
use disengage_reports::Manufacturer;
use disengage_stats::fit::{fit_exponentiated_weibull, spec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_classifier_ablation() {
    let corpus = CorpusGenerator::new(CorpusConfig {
        seed: 0x5EED,
        scale: 0.05,
    })
    .generate();
    let descriptions: Vec<&str> = corpus
        .truth
        .disengagements()
        .iter()
        .map(|r| r.description.as_str())
        .collect();

    let full = Classifier::with_default_dictionary();
    // Truncated dictionary: first phrase per tag only.
    let mut small_dict = FailureDictionary::new();
    let bank = FailureDictionary::default_bank();
    for tag in FaultTag::ALL {
        if let Some(first) = bank.phrases(tag).first() {
            small_dict.add_phrase(tag, first);
        }
    }
    let truncated = Classifier::new(small_dict);

    let mut g = timing::group("nlp_ablation");
    g.sample_size(20);
    g.bench("full_dictionary", || {
        full.classify_all(descriptions.iter().copied())
    });
    g.bench("truncated_dictionary", || {
        truncated.classify_all(descriptions.iter().copied())
    });

    let spec = SpecClassifier::new(full.dictionary());
    let mut g = timing::group("nlp_compiled");
    g.sample_size(20)
        .throughput_elements(descriptions.len() as u64);
    g.bench("spec", || {
        descriptions
            .iter()
            .map(|d| spec.classify(d))
            .collect::<Vec<_>>()
    });
    g.bench("compiled", || {
        full.classify_all(descriptions.iter().copied())
    });
}

fn bench_ocr_ablation() {
    let text = "Planned test on 5/12/16 (car 2): sensor failed to localize in time [road=highway; weather=rain]\n".repeat(20);
    let engine = OcrEngine::new();
    let corrector = default_corrector();
    let page = rasterize(&text);

    let mut g = timing::group("ocr_ablation");
    g.sample_size(10);
    for (name, noise) in [
        ("light_noise", NoiseModel::light()),
        ("heavy_noise", NoiseModel::heavy()),
    ] {
        let mut rng = StdRng::seed_from_u64(3);
        let noisy = noise.degrade(&page, &mut rng);
        g.bench(&format!("recognize_{name}"), || engine.recognize(&noisy));
        let recognized = engine.recognize(&noisy);
        g.bench(&format!("correct_{name}"), || {
            corrector.correct_text(&recognized.text)
        });
    }
}

fn bench_ew_fit_ablation() {
    // Fig. 11's Mercedes-Benz sample at full scale (n ≈ 1,330).
    let truth = CorpusGenerator::new(CorpusConfig {
        seed: 0x5EED,
        scale: 1.0,
    })
    .generate()
    .truth;
    let times: Vec<f64> = truth
        .reaction_times(Manufacturer::MercedesBenz)
        .into_iter()
        .filter(|&t| t > 0.0 && t <= REACTION_OUTLIER_CUTOFF_S)
        .collect();

    let mut g = timing::group("ew_fit");
    g.sample_size(20).throughput_elements(times.len() as u64);
    g.bench("spec", || {
        spec::fit_exponentiated_weibull(&times).expect("spec fit")
    });
    g.bench("newton", || {
        fit_exponentiated_weibull(&times).expect("newton fit")
    });
}

fn main() {
    bench_classifier_ablation();
    bench_ocr_ablation();
    bench_ew_fit_ablation();
}
