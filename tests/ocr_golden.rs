//! Golden digests of the Stage I digitizer.
//!
//! The OCR equivalence suites compare the production kernels with their
//! in-tree specs, so a change that moves both the same way passes them.
//! These digests are pinned values: the FNV-1a-64 of every digitized
//! document's text, `conf_sum` bits, character count and CER bits for
//! two scale-0.05 corpora under five noise profiles, plus the `Debug`
//! form of a simulated-OCR session's database and its `mean_cer` bits,
//! clean and under chaos. Any change to a noise draw, a rasterized
//! pixel, a recognized character or a confidence moves a digest.

use disengage::chaos::FaultPlan;
use disengage::core::pipeline::OcrMode;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::ocr::metrics::cer;
use disengage::ocr::{digitize_streamed, NoiseModel, OcrEngine, StreamScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a, 64-bit: a fixed, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The OCR seed the session uses by default.
const OCR_SEED: u64 = 0xD0C5;

/// Digitizes every document of the scale-0.05 corpus `seed` under
/// `noise`, each on its own derived noise stream, and digests text,
/// `conf_sum` bits, character count and CER bits.
fn digitize_digest(seed: u64, noise: NoiseModel) -> String {
    let corpus = CorpusGenerator::new(CorpusConfig { seed, scale: 0.05 }).generate();
    assert!(!corpus.documents.is_empty(), "corpus {seed} is empty");
    let engine = OcrEngine::new();
    let mut scratch = StreamScratch::default();
    let mut h = Fnv::new();
    for (i, doc) in corpus.documents.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(rand::derive_seed(OCR_SEED, i as u64));
        let out = digitize_streamed(&doc.text, &noise, &engine, &mut scratch, &mut rng);
        h.write(out.text.as_bytes());
        h.write(&out.conf_sum.to_bits().to_le_bytes());
        h.write(&(out.chars as u64).to_le_bytes());
        h.write(&cer(doc.text.trim_end(), &out.text).to_bits().to_le_bytes());
    }
    h.hex()
}

/// The five pinned noise profiles, by label.
fn profiles() -> [(&'static str, NoiseModel); 5] {
    [
        ("light", NoiseModel::light()),
        ("heavy", NoiseModel::heavy()),
        ("salt-only", NoiseModel::new(0.01, 0.0)),
        ("erosion-only", NoiseModel::new(0.0, 0.06)),
        ("smear-only", NoiseModel::with_smear(0.0, 0.0, 0.01)),
    ]
}

fn check_corpus(seed: u64, want: [&str; 5]) {
    let got: Vec<(&str, String)> = profiles()
        .into_iter()
        .map(|(label, noise)| (label, digitize_digest(seed, noise)))
        .collect();
    let want: Vec<(&str, String)> = profiles()
        .iter()
        .zip(want)
        .map(|((label, _), digest)| (*label, digest.to_owned()))
        .collect();
    assert_eq!(got, want, "corpus {seed}: digitization digests moved");
}

#[test]
fn corpus_3_digitizes_to_pinned_digests() {
    check_corpus(
        3,
        [
            "bd786e483bea850c",
            "a070f6e342349fd6",
            "e6e6f22a758c044a",
            "dc4aaac3646ce207",
            "71ec2aa86997cf08",
        ],
    );
}

#[test]
fn corpus_21_digitizes_to_pinned_digests() {
    check_corpus(
        21,
        [
            "06b9c50854d351f1",
            "f06b7cbea9d26bae",
            "3ed4d316c3021f76",
            "fde1f6efe1518e36",
            "f780cbd831affe32",
        ],
    );
}

/// `Debug` of the database plus the `mean_cer` bits of a simulated-OCR
/// session (light noise, dictionary correction).
fn session_digest(chaos: Option<FaultPlan>) -> String {
    let mut config = RunConfig::new()
        .with_corpus(CorpusConfig {
            seed: 5,
            scale: 0.05,
        })
        .with_ocr(OcrMode::Simulated {
            noise: NoiseModel::light(),
            correct: true,
        })
        .with_jobs(1)
        .without_flight_dump();
    if let Some(plan) = chaos {
        config = config.with_chaos(plan);
    }
    let outcome = RunSession::new(config).run().expect("session runs");
    let stats = outcome.ocr.expect("simulated OCR reports stats");
    let mut h = Fnv::new();
    h.write(format!("{:?}", outcome.database).as_bytes());
    h.write(&stats.mean_cer.to_bits().to_le_bytes());
    h.hex()
}

#[test]
fn simulated_ocr_session_is_pinned() {
    assert_eq!(
        session_digest(None),
        "d3fd452612ab520d",
        "clean session digest moved"
    );
}

#[test]
fn simulated_ocr_session_under_chaos_is_pinned() {
    assert_eq!(
        session_digest(Some(FaultPlan::new(0.05, 7))),
        "d0fa10276409784a",
        "chaos session digest moved"
    );
}
