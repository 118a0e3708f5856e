//! Golden digests of the Stage I–II text path.
//!
//! The other byte-identity suites compare a build with itself (jobs 1
//! vs a pool, warm vs cold, clean vs `--chaos=0`), so a render or parse
//! change that shifts every output the same way passes them all. These
//! digests are pinned values: the FNV-1a-64 of every rendered document's
//! text, and of the recovered record ids plus the quarantine lane's ids
//! and reasons, at four seed/scale points, two of them under chaos. A
//! change to any rendered byte, any parsed field that feeds a record id,
//! or any parse-failure message moves a digest.

use disengage::chaos::FaultPlan;
use disengage::core::pipeline::PipelineOutcome;
use disengage::core::{RunConfig, RunSession};
use disengage::corpus::CorpusConfig;

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
}

fn run(seed: u64, scale: f64, chaos: Option<FaultPlan>) -> PipelineOutcome {
    let mut config = RunConfig::new()
        .with_corpus(CorpusConfig { seed, scale })
        .with_jobs(1)
        .without_flight_dump();
    if let Some(plan) = chaos {
        config = config.with_chaos(plan);
    }
    RunSession::new(config).run().expect("session runs")
}

/// `(document text digest, ids + quarantine digest)` of one run.
fn digests(outcome: &PipelineOutcome) -> (String, String) {
    let mut text = Fnv::new();
    for doc in &outcome.corpus.documents {
        text.write(doc.text.as_bytes());
    }
    let mut ids = Fnv::new();
    for id in &outcome.record_ids {
        ids.write(id.to_string().as_bytes());
        ids.write(b"\n");
    }
    for q in &outcome.quarantined {
        ids.write(q.record_id.as_bytes());
        ids.write(b"\t");
        ids.write(q.reason.as_bytes());
        ids.write(b"\n");
    }
    (format!("{:016x}", text.0), format!("{:016x}", ids.0))
}

fn check(label: &str, outcome: &PipelineOutcome, text: &str, ids: &str) {
    let (got_text, got_ids) = digests(outcome);
    assert_eq!(got_text, text, "{label}: document text digest moved");
    assert_eq!(got_ids, ids, "{label}: record id / quarantine digest moved");
}

#[test]
fn clean_seed_1_full_scale() {
    check(
        "seed 1 / 1.0",
        &run(1, 1.0, None),
        "3b18d303dc4c9285",
        "bcdea658c4fbb3dd",
    );
}

#[test]
fn clean_seed_9_tenth_scale() {
    check(
        "seed 9 / 0.1",
        &run(9, 0.1, None),
        "b8bf8a68b3916986",
        "ea2592cb76a7d9c7",
    );
}

#[test]
fn chaos_seed_7_full_scale() {
    check(
        "chaos seed 7 / 1.0",
        &run(7, 1.0, Some(FaultPlan::new(0.05, 7))),
        "97b474ee08162951",
        "5a514b6c44b6d799",
    );
}

#[test]
fn chaos_seed_3_scale_0_3() {
    check(
        "chaos seed 3 / 0.3",
        &run(3, 0.3, Some(FaultPlan::new(0.2, 11))),
        "7e4ab3115458563f",
        "79e820d33e26d241",
    );
}
