//! Stage III folds its telemetry once per call; the result must equal
//! the per-record recording it replaced — one collector and provenance
//! shard per record, classified by the reference classifier and
//! absorbed in record order — at any worker count, with lineage on or
//! off, counters, histogram bits, absent keys and provenance alike.

use disengage::core::tagging::tag_records_traced;
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::nlp::vote::spec::SpecClassifier;
use disengage::nlp::{Classifier, FailureDictionary, FaultTag, TagAssignment};
use disengage::obs::{
    key_segment, Collector, CollectorState, ProvenanceEntry, ProvenanceEvent, ProvenanceLog,
    RecordId, Subject,
};
use disengage::par::TaskTimeline;
use disengage::reports::DisengagementRecord;

/// Sample already in the stage collector before tagging, so the fold
/// must record in order rather than add a precomputed sum.
const PRIOR_MARGIN: f64 = 0.1;

fn records() -> Vec<DisengagementRecord> {
    CorpusGenerator::new(CorpusConfig {
        seed: 0x5EED,
        scale: 1.0,
    })
    .generate()
    .truth
    .disengagements()
    .to_vec()
}

fn ids(records: &[DisengagementRecord]) -> Vec<RecordId> {
    records
        .iter()
        .enumerate()
        .map(|(i, r)| RecordId::new(r.manufacturer.name(), r.date.year(), "car", i as u32))
        .collect()
}

fn log(lineage: bool) -> ProvenanceLog {
    if lineage {
        ProvenanceLog::new()
    } else {
        ProvenanceLog::disabled()
    }
}

/// The per-record path: each record records into its own shards, which
/// are absorbed in record order.
fn reference(
    dict: &FailureDictionary,
    records: &[DisengagementRecord],
    ids: &[RecordId],
    lineage: bool,
) -> (Vec<TagAssignment>, CollectorState, Vec<ProvenanceEntry>) {
    let spec = SpecClassifier::new(dict);
    let obs = Collector::new();
    obs.record("nlp.vote_margin", PRIOR_MARGIN);
    let prov = log(lineage);
    let mut assignments = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let shard = obs.shard();
        let pshard = prov.shard();
        let (a, votes) = spec.classify_detailed(&r.description);
        if let Some(id) = ids.get(i).filter(|_| pshard.is_enabled()) {
            let subject = Subject::Record(id.clone());
            for v in &votes {
                pshard.push(
                    subject.clone(),
                    ProvenanceEvent::DictVote {
                        tag: v.tag.name().to_owned(),
                        category: v.tag.category().name().to_owned(),
                        score: v.score,
                        keywords: v.matched_keywords.clone(),
                    },
                );
            }
            pshard.push(
                subject,
                ProvenanceEvent::Tagged {
                    tag: a.tag.name().to_owned(),
                    category: a.category.name().to_owned(),
                    score: a.score,
                    margin: a.margin,
                    ambiguous: a.ambiguous,
                },
            );
        }
        shard.incr("nlp.tagged");
        shard.incr(&format!("nlp.tag.{}", key_segment(a.tag.name())));
        if a.tag == FaultTag::UnknownT {
            shard.incr("nlp.unknown_t");
        }
        if a.ambiguous {
            shard.incr("nlp.ambiguous");
        }
        shard.record("nlp.vote_margin", a.margin);
        shard.record("nlp.dictionary_hits", a.matched_keywords.len() as f64);
        obs.absorb(shard);
        prov.absorb(pshard);
        assignments.push(a);
    }
    if !assignments.is_empty() {
        let unknown = assignments
            .iter()
            .filter(|a| a.tag == FaultTag::UnknownT)
            .count();
        obs.gauge("nlp.unknown_t_rate", unknown as f64 / assignments.len() as f64);
    }
    (assignments, obs.state(), prov.entries())
}

fn folded(
    dict: &FailureDictionary,
    records: &[DisengagementRecord],
    ids: &[RecordId],
    jobs: usize,
    lineage: bool,
) -> (Vec<TagAssignment>, CollectorState, Vec<ProvenanceEntry>) {
    let obs = Collector::new();
    obs.record("nlp.vote_margin", PRIOR_MARGIN);
    let prov = log(lineage);
    let assignments = tag_records_traced(
        &Classifier::new(dict.clone()),
        records,
        ids,
        jobs,
        &obs,
        &prov,
        &TaskTimeline::disabled(),
    );
    (assignments, obs.state(), prov.entries())
}

fn assert_same_telemetry(got: &CollectorState, want: &CollectorState, what: &str) {
    assert_eq!(got.counters, want.counters, "{what}: counters");
    assert_eq!(got.gauges.len(), want.gauges.len(), "{what}: gauges");
    for ((gn, gv), (wn, wv)) in got.gauges.iter().zip(&want.gauges) {
        assert_eq!((gn, gv.to_bits()), (wn, wv.to_bits()), "{what}: gauge");
    }
    assert_eq!(got.histograms.len(), want.histograms.len(), "{what}: histograms");
    for ((gn, g), (wn, w)) in got.histograms.iter().zip(&want.histograms) {
        assert_eq!(gn, wn, "{what}: histogram names");
        assert_eq!(g.counts, w.counts, "{what}: {gn} buckets");
        assert_eq!(g.count, w.count, "{what}: {gn} count");
        assert_eq!(g.sum.to_bits(), w.sum.to_bits(), "{what}: {gn} sum bits");
        assert_eq!(g.min.to_bits(), w.min.to_bits(), "{what}: {gn} min");
        assert_eq!(g.max.to_bits(), w.max.to_bits(), "{what}: {gn} max");
    }
    assert!(got.spans.is_empty() && got.logs.is_empty(), "{what}: no spans or logs");
}

fn counter(state: &CollectorState, name: &str) -> Option<u64> {
    state.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
}

#[test]
fn full_corpus_fold_equals_per_record_shards() {
    let dict = FailureDictionary::default_bank();
    let mut records = records();
    // The generated corpus has no ties; two keyword-for-keyword ties
    // exercise the `nlp.ambiguous` counter.
    for tie in ["gps processor", "lidar memory"] {
        let mut r = records[0].clone();
        r.description = tie.to_owned();
        records.push(r);
    }
    let ids = ids(&records);
    for lineage in [false, true] {
        let (want, want_obs, want_prov) = reference(&dict, &records, &ids, lineage);
        for jobs in [1, 4] {
            let what = format!("jobs {jobs}, lineage {lineage}");
            let (got, got_obs, got_prov) = folded(&dict, &records, &ids, jobs, lineage);
            assert_eq!(got, want, "{what}: verdicts");
            assert_same_telemetry(&got_obs, &want_obs, &what);
            assert_eq!(got_prov, want_prov, "{what}: provenance");
        }
        assert_eq!(want_prov.is_empty(), !lineage);
    }
    let (_, state, _) = reference(&dict, &records, &ids, false);
    assert_eq!(counter(&state, "nlp.tagged"), Some(records.len() as u64));
    assert_eq!(counter(&state, "nlp.ambiguous"), Some(2));
}

#[test]
fn never_incremented_counters_stay_absent() {
    let dict = FailureDictionary::default_bank();
    let classifier = Classifier::new(dict.clone());
    let records: Vec<DisengagementRecord> = records()
        .into_iter()
        .filter(|r| {
            let a = classifier.classify(&r.description);
            a.tag == FaultTag::HangCrash && !a.ambiguous
        })
        .take(5)
        .collect();
    assert_eq!(records.len(), 5, "the corpus has clear Hang/Crash records");
    let ids = ids(&records);
    let (_, want, _) = reference(&dict, &records, &ids, false);
    for jobs in [1, 4] {
        let (_, got, _) = folded(&dict, &records, &ids, jobs, false);
        assert_same_telemetry(&got, &want, &format!("jobs {jobs}"));
        for absent in ["nlp.ambiguous", "nlp.unknown_t", "nlp.tag.software"] {
            assert_eq!(counter(&got, absent), None, "{absent} was never incremented");
        }
        assert_eq!(counter(&got, "nlp.tag.hang_crash"), Some(5));
    }
    let (_, empty, _) = folded(&dict, &[], &[], 1, true);
    assert_eq!(empty.counters, Vec::new(), "no records, no counters");
    assert_eq!(empty.histograms.len(), 1, "only the prior sample's histogram");
}
