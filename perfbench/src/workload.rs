//! The three workloads, their set-up, and the per-iteration check.
//!
//! Each workload is a [`RunConfig`] generated from the benchmark seed;
//! the program under test receives only that config and the corpus it
//! generates. One iteration is one full reproduction: a
//! `RunSession::run_with` call, then every Stage IV artifact rendered
//! to text.

use crate::render::{render_all, Inputs};
use crate::stats::Digest;
use disengage_cache::fp::Fingerprint;
use disengage_core::pipeline::OcrMode;
use disengage_core::tagging::TaggedDisengagement;
use disengage_core::telemetry::reconcile;
use disengage_core::{PipelineOutcome, RunConfig, RunSession};
use disengage_corpus::{CorpusConfig, CorpusGenerator};
use disengage_nlp::Classifier;
use disengage_obs::Collector;
use disengage_ocr::NoiseModel;
use disengage_reports::FailureDatabase;
use std::fmt::Write as _;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale corpus, passthrough OCR, no cache.
    ReproFull,
    /// Scale-0.05 corpora through simulated OCR with dictionary correction.
    OcrScan,
    /// Paper-scale corpus on a warm cache with one shard invalidated.
    IncrementalRefresh,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReproFull,
        Workload::OcrScan,
        Workload::IncrementalRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproFull => "repro_full",
            Workload::OcrScan => "ocr_scan",
            Workload::IncrementalRefresh => "incremental_refresh",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn uses_cache(self) -> bool {
        self == Workload::IncrementalRefresh
    }

    /// How many corpora a run rotates through, one per iteration in
    /// turn. The simulated-OCR cost of one small corpus differs by a
    /// tenth or more from seed to seed (CER scoring grows with the error
    /// rate a text happens to draw), so `ocr_scan` spreads each run over
    /// eight; the passthrough workloads vary by a few percent and use one.
    pub fn corpora(self) -> usize {
        match self {
            Workload::OcrScan => 8,
            _ => 1,
        }
    }

    /// The workload's uncached `jobs = 1` config for corpus `k` of
    /// benchmark seed `seed`: the corpus seed derives from both,
    /// everything else is fixed per workload.
    pub fn config(self, seed: u64, k: usize) -> RunConfig {
        let scale = if self == Workload::OcrScan { 0.05 } else { 1.0 };
        let config = RunConfig::new()
            .with_corpus(CorpusConfig {
                seed: rand::derive_seed(rand::derive_seed(seed, 0), k as u64),
                scale,
            })
            .with_jobs(1)
            .without_flight_dump();
        match self {
            Workload::OcrScan => config
                .with_ocr(OcrMode::Simulated {
                    noise: NoiseModel::light(),
                    correct: true,
                })
                .with_ocr_seed(0xD0C5),
            _ => config,
        }
    }
}

/// The `jobs = 1`, uncached reference every iteration is checked against.
pub struct Reference {
    pub digest: u64,
    pub database: FailureDatabase,
    pub tagged: Vec<TaggedDisengagement>,
    pub mean_cer: Option<f64>,
}

/// The cache files one shard owns, one per cached stage, keyed by the
/// file names its isolated run wrote.
pub struct ShardFiles {
    pub files: Vec<(String, Fingerprint)>,
}

/// The warm cache `incremental_refresh` refreshes, and its shard map.
pub struct Refresh {
    pub dir: PathBuf,
    pub shards: Vec<ShardFiles>,
    /// Where the seed-derived rotation through the shards starts.
    pub rotation_start: usize,
}

impl Refresh {
    /// The shard iteration `i` invalidates.
    pub fn shard_for(&self, i: usize) -> usize {
        (self.rotation_start + i) % self.shards.len()
    }

    fn path(&self, stage: &str, key: Fingerprint) -> PathBuf {
        self.dir.join(stage).join(format!("{}.art", key.to_hex()))
    }

    /// Deletes shard `k`'s artifacts: a new filing for that cell arrived.
    /// An artifact already missing (an earlier iteration failed before
    /// committing it) is left for that iteration's check to count.
    pub fn invalidate(&self, k: usize) -> Result<(), String> {
        for (stage, key) in &self.shards[k].files {
            let path = self.path(stage, *key);
            match fs::remove_file(&path) {
                Err(e) if e.kind() != ErrorKind::NotFound => {
                    return Err(format!("remove {}: {e}", path.display()))
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Cached stages per shard.
    pub fn stages(&self) -> usize {
        self.shards[0].files.len()
    }
}

/// Everything set-up builds for one corpus before the first timed
/// iteration.
pub struct Prepared {
    /// The benchmarked config: `jobs = nproc - 1`, cache armed for
    /// `incremental_refresh`.
    pub config: RunConfig,
    pub classifier: Classifier,
    pub session: RunSession,
    pub reference: Reference,
    pub refresh: Option<Refresh>,
}

/// Builds the classifier, the reference run of corpus `k`, and for
/// `incremental_refresh` the shard map and the filled cache, under
/// `work` (which must not exist yet).
pub fn prepare(
    workload: Workload,
    seed: u64,
    k: usize,
    jobs: usize,
    work: &Path,
) -> Result<Prepared, String> {
    let classifier = Classifier::with_default_dictionary();
    let base = workload.config(seed, k);
    let reference = {
        let session = RunSession::with_classifier(base.clone(), classifier.clone());
        let (o, text) = reproduce(&session, &classifier)?;
        let violations = reconcile(&o.telemetry);
        if !violations.is_empty() {
            return Err(format!("reference run does not reconcile: {violations:?}"));
        }
        Reference {
            digest: digest(&text, &o.tagged),
            mean_cer: o.ocr.map(|s| s.mean_cer),
            database: o.database,
            tagged: o.tagged,
        }
    };
    let mut config = base.with_jobs(jobs);
    let refresh = if workload.uses_cache() {
        let refresh = fill_cache(&config, &classifier, seed, work, &reference)?;
        config = config.with_cache_dir(&refresh.dir);
        Some(refresh)
    } else {
        None
    };
    Ok(Prepared {
        session: RunSession::with_classifier(config.clone(), classifier.clone()),
        config,
        classifier,
        reference,
        refresh,
    })
}

/// Maps every shard to the files it caches — each shard alone into a
/// scratch directory — then fills the benchmark's cache with one full
/// run. Fails unless every shard writes exactly one file per cached
/// stage and together they are exactly the full run's files: anything
/// else would let the refresh quietly turn into a pure warm replay.
fn fill_cache(
    config: &RunConfig,
    classifier: &Classifier,
    seed: u64,
    work: &Path,
    reference: &Reference,
) -> Result<Refresh, String> {
    let specs = CorpusGenerator::new(config.corpus).shards();
    let mut shards = Vec::with_capacity(specs.len());
    for spec in specs {
        let dir = work.join("map").join(spec.label());
        let single = config
            .clone()
            .with_cache_dir(&dir)
            .with_shards(vec![spec.label()]);
        RunSession::with_classifier(single, classifier.clone())
            .run_with(&Collector::new())
            .map_err(|e| format!("shard {} alone: {e}", spec.label()))?;
        let files = list_artifacts(&dir)?;
        let mut stages: Vec<&str> = files.iter().map(|(s, _)| s.as_str()).collect();
        stages.dedup();
        if files.is_empty() || stages.len() != files.len() {
            return Err(format!(
                "shard {} wrote {files:?}: expected exactly one file per cached stage",
                spec.label()
            ));
        }
        fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        shards.push(ShardFiles { files });
    }

    let dir = work.join("cache");
    let session =
        RunSession::with_classifier(config.clone().with_cache_dir(&dir), classifier.clone());
    let (o, text) = reproduce(&session, classifier)?;
    if digest(&text, &o.tagged) != reference.digest {
        return Err("cache-filling run differs from the reference".to_owned());
    }
    let full = list_artifacts(&dir)?;
    let mut mapped: Vec<(String, Fingerprint)> = shards
        .iter()
        .flat_map(|s| s.files.iter().cloned())
        .collect();
    mapped.sort();
    let stages = |shard: &ShardFiles| {
        shard
            .files
            .iter()
            .map(|(stage, _)| stage.clone())
            .collect::<Vec<_>>()
    };
    if mapped != full
        || shards
            .iter()
            .any(|shard| stages(shard) != stages(&shards[0]))
    {
        return Err(format!(
            "shard map ({} files) does not partition the full run's cache ({} files) by stage",
            mapped.len(),
            full.len()
        ));
    }
    let rotation_start = (rand::derive_seed(seed, 1) % shards.len() as u64) as usize;
    Ok(Refresh {
        dir,
        shards,
        rotation_start,
    })
}

/// Lists `<dir>/<stage>/<fingerprint>.art`, sorted. Any other file is an
/// error: a finished run leaves no tmp or lock files behind.
fn list_artifacts(dir: &Path) -> Result<Vec<(String, Fingerprint)>, String> {
    let read = |d: &Path| fs::read_dir(d).map_err(|e| format!("read {}: {e}", d.display()));
    let mut out = Vec::new();
    for stage in read(dir)? {
        let stage = stage.map_err(|e| e.to_string())?;
        let name = stage.file_name().to_string_lossy().into_owned();
        for file in read(&stage.path())? {
            let file = file.map_err(|e| e.to_string())?.file_name();
            let file = file.to_string_lossy();
            let key = file
                .strip_suffix(".art")
                .and_then(Fingerprint::from_hex)
                .ok_or_else(|| format!("unexpected cache file {name}/{file}"))?;
            out.push((name.clone(), key));
        }
    }
    out.sort();
    Ok(out)
}

/// One reproduction: the session run, then every Stage IV artifact.
pub fn reproduce(
    session: &RunSession,
    classifier: &Classifier,
) -> Result<(PipelineOutcome, String), String> {
    let o = session
        .run_with(&Collector::new())
        .map_err(|e| e.to_string())?;
    let text = render_all(&Inputs {
        database: &o.database,
        tagged: &o.tagged,
        intended: &o.corpus.intended_tags,
        classifier,
    })
    .map_err(|e| format!("stage IV: {e}"))?;
    Ok((o, text))
}

/// Digest of the rendered Stage IV text and the Stage III verdicts.
pub fn digest(text: &str, tagged: &[TaggedDisengagement]) -> u64 {
    let mut d = Digest::default();
    let _ = d.write_str(text);
    let _ = write!(d, "{tagged:?}");
    d.finish()
}

/// Checks one iteration: same digest as the reference, reconciling
/// telemetry, and for `incremental_refresh` exactly one shard
/// recomputed while every other replayed from the cache.
pub fn check(p: &Prepared, o: &PipelineOutcome, text: &str) -> Result<(), String> {
    if digest(text, &o.tagged) != p.reference.digest {
        return Err("output digest differs from the reference".to_owned());
    }
    let violations = reconcile(&o.telemetry);
    if !violations.is_empty() {
        return Err(format!("telemetry does not reconcile: {violations:?}"));
    }
    if let Some(r) = &p.refresh {
        let (hit, miss) = (
            o.telemetry.counter("cache.hit"),
            o.telemetry.counter("cache.miss"),
        );
        let stages = r.stages() as u64;
        if miss != stages || hit != (r.shards.len() as u64 - 1) * stages {
            return Err(format!(
                "expected one shard recomputed: {hit} hits, {miss} misses"
            ));
        }
    }
    Ok(())
}
