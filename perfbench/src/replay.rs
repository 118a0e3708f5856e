//! The traced replay behind the per-layer metrics.
//!
//! On one thread, the replay runs the workload a shard at a time
//! through each layer's public functions — the same calls, in the same
//! order, that the session makes — with a span around every call. Each
//! span adds its wall time and its `CountingAlloc` deltas to its layer's
//! total and, for Stage I–III and the in-shard merge, to its shard's
//! tally. The replay must rebuild a database, verdict list and Stage IV
//! text equal to the session's reference; for `incremental_refresh` it
//! must also re-encode the recomputed shard's artifacts byte for byte.

use crate::render::{render, Inputs, ARTIFACTS};
use crate::stats::{list_schedule, lpt_schedule};
use crate::workload::{digest, Prepared, Refresh};
use disengage_cache::fp::Fingerprint;
use disengage_cache::store::{ArtifactStore, Lookup};
use disengage_cache::{Dec, Enc};
use disengage_core::artifact::{self, NormalizeArtifact, FORMAT_VERSION};
use disengage_core::pipeline::{default_corrector, OcrMode};
use disengage_core::tagging::TaggedDisengagement;
use disengage_core::RunSession;
use disengage_corpus::{Corpus, CorpusGenerator, ShardSpec};
use disengage_nlp::{FaultTag, TagAssignment};
use disengage_obs::profile::alloc_stats;
use disengage_obs::{Collector, CollectorState, ProvenanceEntry, ProvenanceLog};
use disengage_ocr::metrics::cer;
use disengage_ocr::{digitize_streamed, Corrector, NoiseModel, OcrEngine, StreamScratch};
use disengage_reports::formats::RawDocument;
use disengage_reports::normalize::{normalize_document_traced, Normalized};
use disengage_reports::FailureDatabase;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

// Span buckets. Those up to `MERGE` are also tallied per shard.
const CORPUS: usize = 0;
const OCR_DIGITIZE: usize = 1;
const OCR_CORRECT: usize = 2;
const OCR_CER: usize = 3;
const REPORTS: usize = 4;
const NLP: usize = 5;
const CACHE_LOAD: usize = 6;
const CACHE_DECODE: usize = 7;
const CACHE_ENCODE: usize = 8;
const CACHE_SAVE: usize = 9;
const MERGE: usize = 10;
const ANALYZE: usize = 11;
const BUCKETS: usize = ANALYZE + ARTIFACTS.len();

/// Wall time and allocator traffic inside one bucket's spans.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    secs: f64,
    alloc_calls: u64,
    alloc_bytes: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.secs += other.secs;
        self.alloc_calls += other.alloc_calls;
        self.alloc_bytes += other.alloc_bytes;
    }

    fn sum(tallies: &[Tally]) -> Tally {
        let mut t = Tally::default();
        for x in tallies {
            t.add(*x);
        }
        t
    }
}

/// Span recorder: layer totals plus per-shard tallies.
struct Meter {
    total: [Tally; BUCKETS],
    shard: Vec<[Tally; MERGE + 1]>,
    current: Option<usize>,
}

impl Meter {
    fn new(shards: usize) -> Meter {
        Meter {
            total: [Tally::default(); BUCKETS],
            shard: vec![[Tally::default(); MERGE + 1]; shards],
            current: None,
        }
    }

    /// Runs `f` inside a span of `bucket`. Nothing here allocates, so
    /// the allocation deltas are `f`'s alone (the replay is
    /// single-threaded).
    fn span<T>(&mut self, bucket: usize, f: impl FnOnce() -> T) -> T {
        let a0 = alloc_stats();
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let a1 = alloc_stats();
        let d = Tally {
            secs,
            alloc_calls: a1.calls - a0.calls,
            alloc_bytes: a1.bytes - a0.bytes,
        };
        self.total[bucket].add(d);
        if let (Some(s), true) = (self.current, bucket <= MERGE) {
            self.shard[s][bucket].add(d);
        }
        out
    }

    fn layer(&self, buckets: std::ops::RangeInclusive<usize>) -> Tally {
        Tally::sum(&self.total[buckets])
    }
}

/// Work counts of one replay. All are exact and repeat run to run.
#[derive(Debug, Clone, Default, PartialEq)]
struct Counts {
    corpus_docs: u64,
    corpus_bytes: u64,
    ocr_docs: u64,
    ocr_chars: u64,
    ocr_corrections: u64,
    ocr_cer_sum: f64,
    reports_lines: u64,
    reports_records: u64,
    reports_outcomes: u64,
    reports_failures: u64,
    nlp_records: u64,
    nlp_unknown: u64,
    cache_probes: u64,
    cache_hits: u64,
    cache_load_bytes: u64,
    cache_save_bytes: u64,
    merge_records: u64,
}

/// A per-layer metric: `count` metrics are exact work counts taken from
/// one replay; the rest are times, reported as medians over replays.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub count: bool,
}

/// The recomputed shard's artifacts as the cache held them, so the
/// replay can re-commit them with the recorded telemetry envelope and
/// check the bytes.
struct Recorded {
    stage: String,
    key: Fingerprint,
    state: CollectorState,
    prov: Vec<ProvenanceEntry>,
    payload: Vec<u8>,
}

/// Replays one workload; owns the layers' long-lived state.
pub struct Replayer<'a> {
    p: &'a Prepared,
    generator: CorpusGenerator,
    specs: Vec<ShardSpec>,
    ocr: Option<(NoiseModel, Option<Corrector>)>,
    engine: OcrEngine,
    store: Option<ArtifactStore>,
    jobs: usize,
}

impl<'a> Replayer<'a> {
    /// `jobs` is the benchmarked worker count the shard schedules model.
    pub fn new(p: &'a Prepared, jobs: usize) -> Result<Replayer<'a>, String> {
        let generator = CorpusGenerator::new(p.config.corpus);
        let specs = generator.shards();
        let ocr = match p.config.ocr {
            OcrMode::Passthrough => None,
            OcrMode::Simulated { noise, correct } => Some((noise, correct.then(default_corrector))),
        };
        let store = match &p.refresh {
            Some(r) => {
                let stages: Vec<&str> = r.shards[0].files.iter().map(|(s, _)| s.as_str()).collect();
                if stages != ["corpus", "normalize", "tag"] {
                    return Err(format!(
                        "replay expects corpus/normalize/tag artifacts, got {stages:?}"
                    ));
                }
                Some(ArtifactStore::at(&r.dir, FORMAT_VERSION).with_cap(4 * specs.len()))
            }
            None => None,
        };
        Ok(Replayer {
            p,
            generator,
            specs,
            ocr,
            engine: OcrEngine::new(),
            store,
            jobs,
        })
    }

    /// One traced replay plus one untraced `jobs = 1` session run on
    /// the same input; iteration `i` picks the refreshed shard.
    /// Returns every per-layer metric.
    pub fn run(&self, i: usize) -> Result<Vec<Metric>, String> {
        let refreshed = self.p.refresh.as_ref().map(|r| r.shard_for(i));
        let recorded = match (&self.p.refresh, refreshed) {
            (Some(r), Some(k)) => {
                let recorded = self.record(r, k)?;
                r.invalidate(k)?;
                recorded
            }
            _ => Vec::new(),
        };

        let mut meter = Meter::new(self.specs.len());
        let mut counts = Counts::default();
        let mut global = Normalized::default();
        let mut assignments: Vec<TagAssignment> = Vec::new();
        let mut intended: Vec<FaultTag> = Vec::new();
        let start = Instant::now();
        for (si, spec) in self.specs.iter().enumerate() {
            meter.current = Some(si);
            let replayed = self.store.is_some() && refreshed != Some(si);
            let (shard, tags, tags_intended) = if replayed {
                self.replay_shard(&mut meter, &mut counts, si)?
            } else {
                self.compute_shard(&mut meter, &mut counts, spec, &recorded)?
            };
            meter.span(MERGE, || {
                global.merge(shard);
                assignments.extend(tags);
                intended.extend(tags_intended);
            });
        }
        meter.current = None;
        let database = meter.span(MERGE, || {
            FailureDatabase::from_records(global.disengagements, global.accidents, global.mileage)
        });
        let tagged: Vec<TaggedDisengagement> = meter.span(MERGE, || {
            database
                .disengagements()
                .iter()
                .cloned()
                .zip(assignments)
                .map(|(record, assignment)| TaggedDisengagement { record, assignment })
                .collect()
        });
        let traced_s = start.elapsed().as_secs_f64();
        counts.merge_records = database.disengagements().len() as u64;

        let inputs = Inputs {
            database: &database,
            tagged: &tagged,
            intended: &intended,
            classifier: &self.p.classifier,
        };
        let mut text = String::new();
        for (a, name) in ARTIFACTS.iter().enumerate() {
            let t = meter
                .span(ANALYZE + a, || render(name, &inputs))
                .map_err(|e| format!("replayed {name}: {e}"))?;
            text.push_str(&t);
            text.push('\n');
        }
        let reference = &self.p.reference;
        if database != reference.database || tagged != reference.tagged {
            return Err("replayed database or verdicts differ from the session's".to_owned());
        }
        if digest(&text, &tagged) != reference.digest {
            return Err("replayed Stage IV text differs from the session's".to_owned());
        }

        let untraced_s = self.untraced_session(refreshed)?;
        self.self_test(&meter, &counts)?;
        Ok(self.metrics(&meter, &counts, traced_s, untraced_s))
    }

    /// Loads and decodes shard `k`'s artifacts before they are deleted.
    fn record(&self, r: &Refresh, k: usize) -> Result<Vec<Recorded>, String> {
        let store = self.store.as_ref().expect("refresh replays have a store");
        let mut out = Vec::new();
        for (stage, key) in &r.shards[k].files {
            let Lookup::Hit(payload) = store.load(stage, *key) else {
                return Err(format!("{stage}/{key} is not cached before the refresh"));
            };
            let decoded = match stage.as_str() {
                "corpus" => {
                    artifact::decode_stage(&payload, artifact::dec_corpus).map(|(s, p, _)| (s, p))
                }
                "normalize" => artifact::decode_stage(&payload, artifact::dec_normalized)
                    .map(|(s, p, _)| (s, p)),
                _ => artifact::decode_stage(&payload, artifact::dec_assignments)
                    .map(|(s, p, _)| (s, p)),
            };
            let (state, prov) = decoded.ok_or_else(|| format!("{stage}/{key} does not decode"))?;
            out.push(Recorded {
                stage: stage.clone(),
                key: *key,
                state,
                prov,
                payload,
            });
        }
        Ok(out)
    }

    /// Loads and decodes one cached stage of shard `si`.
    fn load<T>(
        &self,
        meter: &mut Meter,
        counts: &mut Counts,
        si: usize,
        stage: &str,
        dec: impl FnOnce(&mut Dec) -> Option<T>,
    ) -> Result<T, String> {
        let store = self.store.as_ref().expect("cache replays have a store");
        let refresh = self.p.refresh.as_ref().expect("cache replays refresh");
        let key = refresh.shards[si]
            .files
            .iter()
            .find(|(s, _)| s == stage)
            .map(|(_, k)| *k)
            .ok_or_else(|| format!("shard {si} maps no {stage} artifact"))?;
        counts.cache_probes += 1;
        let Lookup::Hit(bytes) = meter.span(CACHE_LOAD, || store.load(stage, key)) else {
            return Err(format!("{stage}/{key} missed on replay"));
        };
        counts.cache_hits += 1;
        counts.cache_load_bytes += bytes.len() as u64;
        let (_, _, value) = meter
            .span(CACHE_DECODE, || artifact::decode_stage(&bytes, dec))
            .ok_or_else(|| format!("{stage}/{key} does not decode"))?;
        Ok(value)
    }

    /// A shard replayed from the cache: corpus, normalize and tag loads.
    fn replay_shard(
        &self,
        meter: &mut Meter,
        counts: &mut Counts,
        si: usize,
    ) -> Result<(Normalized, Vec<TagAssignment>, Vec<FaultTag>), String> {
        let corpus = self.load(meter, counts, si, "corpus", artifact::dec_corpus)?;
        let n = self.load(meter, counts, si, "normalize", artifact::dec_normalized)?;
        let tags = self.load(meter, counts, si, "tag", artifact::dec_assignments)?;
        let shard = Normalized {
            disengagements: n.disengagements,
            accidents: n.accidents,
            mileage: n.mileage,
            failures: n.failures,
        };
        Ok((shard, tags, corpus.intended_tags))
    }

    /// Probes the cache for a stage the refresh deleted (the session
    /// probes before it recomputes).
    fn probe_miss(
        &self,
        meter: &mut Meter,
        counts: &mut Counts,
        recorded: &Recorded,
    ) -> Result<(), String> {
        let store = self.store.as_ref().expect("cache replays have a store");
        counts.cache_probes += 1;
        match meter.span(CACHE_LOAD, || store.load(&recorded.stage, recorded.key)) {
            Lookup::Miss => Ok(()),
            _ => Err(format!(
                "{}/{} was not invalidated",
                recorded.stage, recorded.key
            )),
        }
    }

    /// Encodes and commits one recomputed stage with its recorded
    /// envelope; the bytes must equal what the cache held.
    fn commit<T>(
        &self,
        meter: &mut Meter,
        counts: &mut Counts,
        recorded: &Recorded,
        value: &T,
        enc: impl FnOnce(&mut Enc, &T),
    ) -> Result<(), String> {
        let store = self.store.as_ref().expect("cache replays have a store");
        let bytes = meter.span(CACHE_ENCODE, || {
            artifact::encode_stage(&recorded.state, &recorded.prov, value, enc)
        });
        if bytes != recorded.payload {
            return Err(format!(
                "recomputed {}/{} differs from the cached artifact",
                recorded.stage, recorded.key
            ));
        }
        counts.cache_save_bytes += bytes.len() as u64;
        meter.span(CACHE_SAVE, || {
            store.save(&recorded.stage, recorded.key, &bytes)
        });
        Ok(())
    }

    /// A shard computed through Stages I–III (and committed to the cache
    /// when it is the refreshed one).
    fn compute_shard(
        &self,
        meter: &mut Meter,
        counts: &mut Counts,
        spec: &ShardSpec,
        recorded: &[Recorded],
    ) -> Result<(Normalized, Vec<TagAssignment>, Vec<FaultTag>), String> {
        let cached = |stage: &str| recorded.iter().find(|r| r.stage == stage);

        if let Some(r) = cached("corpus") {
            self.probe_miss(meter, counts, r)?;
        }
        let corpus: Corpus = meter.span(CORPUS, || self.generator.generate_shard(spec));
        counts.corpus_docs += corpus.documents.len() as u64;
        counts.corpus_bytes += corpus
            .documents
            .iter()
            .map(|d| d.text.len() as u64)
            .sum::<u64>();
        if let Some(r) = cached("corpus") {
            self.commit(meter, counts, r, &corpus, artifact::enc_corpus)?;
        }

        let digitized = match &self.ocr {
            Some((noise, corrector)) => Some(self.digitize(
                meter,
                counts,
                spec,
                &corpus.documents,
                noise,
                corrector.as_ref(),
            )),
            None => None,
        };
        let docs = digitized.as_deref().unwrap_or(&corpus.documents);

        if let Some(r) = cached("normalize") {
            self.probe_miss(meter, counts, r)?;
        }
        let no_prov = ProvenanceLog::disabled();
        let mut shard = Normalized::default();
        let mut record_ids = Vec::new();
        for (i, doc) in docs.iter().enumerate() {
            counts.reports_lines += doc.text.lines().count() as u64;
            let (n, ids) = meter.span(REPORTS, || {
                normalize_document_traced(doc, spec.doc_base + i, None, &no_prov)
            });
            record_ids.extend(ids);
            meter.span(MERGE, || shard.merge(n));
        }
        counts.reports_records += shard.disengagements.len() as u64;
        counts.reports_outcomes += (shard.record_count() + shard.failures.len()) as u64;
        counts.reports_failures += shard.failures.len() as u64;
        if let Some(r) = cached("normalize") {
            let art = NormalizeArtifact {
                disengagements: shard.disengagements,
                accidents: shard.accidents,
                mileage: shard.mileage,
                failures: shard.failures,
                panicked: Vec::new(),
                record_ids,
                chaos: None,
            };
            self.commit(meter, counts, r, &art, artifact::enc_normalized)?;
            shard = Normalized {
                disengagements: art.disengagements,
                accidents: art.accidents,
                mileage: art.mileage,
                failures: art.failures,
            };
        }

        if let Some(r) = cached("tag") {
            self.probe_miss(meter, counts, r)?;
        }
        let classifier = &self.p.classifier;
        let mut tags = Vec::with_capacity(shard.disengagements.len());
        for record in &shard.disengagements {
            tags.push(meter.span(NLP, || classifier.classify(&record.description)));
        }
        counts.nlp_records += tags.len() as u64;
        counts.nlp_unknown += tags.iter().filter(|t| t.tag == FaultTag::UnknownT).count() as u64;
        if let Some(r) = cached("tag") {
            self.commit(meter, counts, r, &tags, artifact::enc_assignments)?;
        }
        Ok((shard, tags, corpus.intended_tags))
    }

    /// Stage I simulated OCR of one shard's documents: strip-streamed
    /// digitization, dictionary correction, and CER against the pristine
    /// text, each document on its own seeded noise stream.
    fn digitize(
        &self,
        meter: &mut Meter,
        counts: &mut Counts,
        spec: &ShardSpec,
        docs: &[RawDocument],
        noise: &NoiseModel,
        corrector: Option<&Corrector>,
    ) -> Vec<RawDocument> {
        let mut scratch = StreamScratch::default();
        let mut out = Vec::with_capacity(docs.len());
        for (i, doc) in docs.iter().enumerate() {
            let seed = rand::derive_seed(self.p.config.ocr_seed, (spec.doc_base + i) as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let lean = meter.span(OCR_DIGITIZE, || {
                digitize_streamed(&doc.text, noise, &self.engine, &mut scratch, &mut rng)
            });
            counts.ocr_docs += 1;
            counts.ocr_chars += lean.chars as u64;
            let text = match corrector {
                Some(c) => {
                    let (text, hits) =
                        meter.span(OCR_CORRECT, || c.correct_text_bounded(&lean.text, 1));
                    counts.ocr_corrections += hits.iter().sum::<u64>();
                    text
                }
                None => lean.text,
            };
            counts.ocr_cer_sum += meter.span(OCR_CER, || cer(doc.text.trim_end(), &text));
            out.push(RawDocument::new(
                doc.manufacturer,
                doc.report_year,
                doc.kind,
                text,
            ));
        }
        out
    }

    /// Times an untraced `jobs = 1` session on the replay's input and
    /// checks it against the reference.
    fn untraced_session(&self, refreshed: Option<usize>) -> Result<f64, String> {
        if let (Some(r), Some(k)) = (&self.p.refresh, refreshed) {
            r.invalidate(k)?;
        }
        let session = RunSession::with_classifier(
            self.p.config.clone().with_jobs(1),
            self.p.classifier.clone(),
        );
        let t0 = Instant::now();
        let o = session
            .run_with(&Collector::new())
            .map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        if o.database != self.p.reference.database || o.tagged != self.p.reference.tagged {
            return Err("untraced jobs=1 session differs from the reference".to_owned());
        }
        Ok(secs)
    }

    /// The replay's own invariants: per-shard spans sum to each Stage
    /// I–III layer's total, record counts match the session's outcome,
    /// and the replayed CER matches the session's.
    fn self_test(&self, meter: &Meter, counts: &Counts) -> Result<(), String> {
        for bucket in CORPUS..MERGE {
            let per_shard: f64 = meter.shard.iter().map(|s| s[bucket].secs).sum();
            let calls: u64 = meter.shard.iter().map(|s| s[bucket].alloc_calls).sum();
            let total = meter.total[bucket];
            if (per_shard - total.secs).abs() > 1e-9 || calls != total.alloc_calls {
                return Err(format!(
                    "bucket {bucket}: per-shard spans do not sum to the layer total"
                ));
            }
        }
        let outcome = self.p.reference.database.disengagements().len() as u64;
        let computed = if self.store.is_some() {
            // Only the refreshed shard passes through Stages II–III.
            counts.reports_records
        } else {
            outcome
        };
        if counts.merge_records != outcome
            || counts.reports_records != computed
            || counts.nlp_records != computed
        {
            return Err(format!(
                "record counts: merge {} reports {} nlp {}, outcome {outcome}",
                counts.merge_records, counts.reports_records, counts.nlp_records
            ));
        }
        if let Some(session_cer) = self.p.reference.mean_cer {
            let cer = counts.ocr_cer_sum / counts.ocr_docs as f64;
            if (cer - session_cer).abs() > 1e-12 {
                return Err(format!("replayed CER {cer} vs session {session_cer}"));
            }
        }
        Ok(())
    }

    fn metrics(&self, meter: &Meter, c: &Counts, traced_s: f64, untraced_s: f64) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut time = |name: &str, value: f64| {
            out.push(Metric {
                name: name.to_owned(),
                unit: "s",
                value,
                count: false,
            });
        };
        let t = |b: usize| meter.total[b].secs;
        time("corpus.generate_s", t(CORPUS));
        time("ocr.digitize_s", t(OCR_DIGITIZE));
        time("ocr.correct_s", t(OCR_CORRECT));
        time("ocr.cer_s", t(OCR_CER));
        time("reports.normalize_s", t(REPORTS));
        time("nlp.classify_s", t(NLP));
        time("cache.load_s", t(CACHE_LOAD));
        time("cache.decode_s", t(CACHE_DECODE));
        time("cache.encode_s", t(CACHE_ENCODE));
        time("cache.save_s", t(CACHE_SAVE));
        time("merge.fold_s", t(MERGE));
        let analyze = meter.layer(ANALYZE..=BUCKETS - 1);
        time("analyze.total_s", analyze.secs);
        for (a, name) in ARTIFACTS.iter().enumerate() {
            time(&format!("analyze.{name}_s"), t(ANALYZE + a));
        }
        let shard_s: Vec<f64> = meter.shard.iter().map(|s| Tally::sum(s).secs).collect();
        time("par.shard_sum_s", shard_s.iter().sum());
        time(
            "par.critical_shard_s",
            shard_s.iter().copied().fold(0.0, f64::max),
        );
        time("par.enum_order_s", list_schedule(&shard_s, self.jobs));
        time("par.lpt_s", lpt_schedule(&shard_s, self.jobs));
        time("session.untraced_s", untraced_s);
        let self_s = meter.layer(CORPUS..=MERGE).secs;
        time("session.unattributed_s", untraced_s - self_s);

        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        out.push(Metric {
            name: "nlp.us_per_record".to_owned(),
            unit: "us",
            value: ratio(t(NLP) * 1e6, c.nlp_records as f64),
            count: false,
        });
        out.push(Metric {
            name: "trace.overhead_frac".to_owned(),
            unit: "frac",
            value: traced_s / untraced_s - 1.0,
            count: false,
        });

        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let ocr = meter.layer(OCR_DIGITIZE..=OCR_CER);
        let nlp = meter.total[NLP];
        let counted = [
            ("corpus.docs", "count", c.corpus_docs as f64),
            ("corpus.bytes", "B", c.corpus_bytes as f64),
            (
                "corpus.alloc_calls",
                "count",
                meter.total[CORPUS].alloc_calls as f64,
            ),
            ("ocr.docs", "count", c.ocr_docs as f64),
            ("ocr.chars", "count", c.ocr_chars as f64),
            ("ocr.corrections", "count", c.ocr_corrections as f64),
            ("ocr.cer", "frac", ratio(c.ocr_cer_sum, c.ocr_docs as f64)),
            ("ocr.alloc_calls", "count", ocr.alloc_calls as f64),
            ("ocr.alloc_mib", "MiB", mib(ocr.alloc_bytes)),
            ("reports.lines", "count", c.reports_lines as f64),
            ("reports.records", "count", c.reports_records as f64),
            (
                "reports.failed_frac",
                "frac",
                ratio(c.reports_failures as f64, c.reports_outcomes as f64),
            ),
            (
                "reports.alloc_calls",
                "count",
                meter.total[REPORTS].alloc_calls as f64,
            ),
            ("nlp.records", "count", c.nlp_records as f64),
            (
                "nlp.unknown_frac",
                "frac",
                ratio(c.nlp_unknown as f64, c.nlp_records as f64),
            ),
            ("nlp.alloc_calls", "count", nlp.alloc_calls as f64),
            ("nlp.alloc_mib", "MiB", mib(nlp.alloc_bytes)),
            ("cache.load_bytes", "B", c.cache_load_bytes as f64),
            ("cache.save_bytes", "B", c.cache_save_bytes as f64),
            (
                "cache.hit_frac",
                "frac",
                ratio(c.cache_hits as f64, c.cache_probes as f64),
            ),
            (
                "cache.alloc_calls",
                "count",
                meter.layer(CACHE_LOAD..=CACHE_SAVE).alloc_calls as f64,
            ),
            ("merge.records", "count", c.merge_records as f64),
            (
                "merge.alloc_calls",
                "count",
                meter.total[MERGE].alloc_calls as f64,
            ),
            ("analyze.alloc_calls", "count", analyze.alloc_calls as f64),
        ];
        for (name, unit, value) in counted {
            out.push(Metric {
                name: name.to_owned(),
                unit,
                value,
                count: true,
            });
        }
        out
    }
}
