//! Allocation ceilings for the Stage I–II text path — a perf gate that
//! reads the same on every machine.
//!
//! Rendering writes every log line and the mileage table into one
//! presized buffer, parsing works on borrowed slices, and the clean-path
//! counters fold once per shard (Stage I) or per document (Stage II).
//! What is left per disengagement record is its own data: the
//! description (Stage I generates it, Stage II parses it back) and the
//! record id's two owned segments (Stage II). The ceilings below leave
//! room for that and for amortized vector growth, but not for one
//! throwaway `String` per field or per counter update.

use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::obs::profile::alloc_stats;
use disengage::obs::{Collector, CountingAlloc, ProvenanceLog};
use disengage::reports::normalize::normalize_document_traced;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Stage I ceiling, allocations per disengagement record (measured
/// 2.1: one more allocation per record fails it).
const STAGE_I_PER_RECORD: f64 = 3.0;
/// Stage II ceiling, allocations per disengagement record (measured
/// 3.1: one more allocation per record fails it).
const STAGE_II_PER_RECORD: f64 = 4.0;

/// Runs `f`, returning its result and the allocation calls it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = alloc_stats().calls;
    let out = f();
    (out, alloc_stats().calls - before)
}

// One test function: the counting allocator is process-wide, so a
// second test running on another thread would leak into the counts.
#[test]
fn text_path_allocations_per_record_stay_under_ceilings() {
    let generator = CorpusGenerator::new(CorpusConfig {
        seed: 0x5EED,
        scale: 1.0,
    });
    let no_prov = ProvenanceLog::disabled();
    let (mut records, mut parsed) = (0usize, 0usize);
    let (mut stage_i, mut stage_ii) = (0u64, 0u64);
    for spec in generator.shards() {
        // Fresh collectors per shard and per document, as a session
        // gives each its own: first-use counter keys are paid here too.
        let obs = Collector::new();
        let (corpus, calls) = counted(|| generator.generate_shard_with(&spec, &obs));
        stage_i += calls;
        records += corpus.truth.disengagements().len();
        for (i, doc) in corpus.documents.iter().enumerate() {
            let obs = Collector::new();
            let ((normalized, ids), calls) =
                counted(|| normalize_document_traced(doc, spec.doc_base + i, Some(&obs), &no_prov));
            stage_ii += calls;
            assert!(
                normalized.failures.is_empty(),
                "clean corpus failed to parse"
            );
            assert_eq!(ids.len(), normalized.disengagements.len());
            parsed += normalized.disengagements.len();
        }
    }
    // Non-vacuous: the full paper corpus, and a counting allocator.
    assert_eq!(records, 5_328, "full-scale corpus size moved");
    assert_eq!(
        parsed, records,
        "passthrough parse must recover every record"
    );
    assert!(
        stage_i > 0 && stage_ii > 0,
        "counting allocator not installed"
    );

    let per_record_i = stage_i as f64 / records as f64;
    let per_record_ii = stage_ii as f64 / records as f64;
    eprintln!(
        "text path: stage I {stage_i} allocations ({per_record_i:.2}/record), \
         stage II {stage_ii} ({per_record_ii:.2}/record)"
    );
    assert!(
        per_record_i <= STAGE_I_PER_RECORD,
        "Stage I made {per_record_i:.2} allocations per record (ceiling {STAGE_I_PER_RECORD})"
    );
    assert!(
        per_record_ii <= STAGE_II_PER_RECORD,
        "Stage II made {per_record_ii:.2} allocations per record (ceiling {STAGE_II_PER_RECORD})"
    );
}
