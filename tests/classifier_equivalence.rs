//! The compiled Stage III classifier against its executable reference.
//!
//! `Classifier` interns the failure dictionary into token ids and votes
//! in one pass; `nlp::vote::spec::SpecClassifier` is the string-set
//! reading of the same rule. They must agree on every description:
//! tag, category, the exact bits of score and margin, the ambiguity
//! flag, the full ballot, and the byte-lexicographic order of the
//! matched keywords — over full corpora, chaos-poisoned dictionaries,
//! seeded adversarial text, and a dictionary too wide for any
//! fixed-width keyword bitmask.

use disengage::chaos::{poison_dictionary, FaultPlan};
use disengage::corpus::{CorpusConfig, CorpusGenerator};
use disengage::nlp::vote::spec::SpecClassifier;
use disengage::nlp::{Classifier, FailureDictionary, FaultTag, TagAssignment, TagVote};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Asserts that both classifiers give bit-identical verdicts and
/// ballots on every text, and that the plain and detailed compiled
/// forms agree. Returns how many texts voted for some tag.
fn assert_equivalent<'a>(
    dict: &FailureDictionary,
    texts: impl IntoIterator<Item = &'a str>,
) -> usize {
    let compiled = Classifier::new(dict.clone());
    let spec = SpecClassifier::new(dict);
    let mut scored = 0;
    for text in texts {
        let (want, want_votes) = spec.classify_detailed(text);
        let (got, got_votes) = compiled.classify_detailed(text);
        assert_same_assignment(&got, &want, text);
        assert_eq!(got_votes.len(), want_votes.len(), "ballot size for {text:?}");
        for (g, w) in got_votes.iter().zip(&want_votes) {
            assert_same_vote(g, w, text);
        }
        assert_same_assignment(&compiled.classify(text), &want, text);
        scored += usize::from(!want_votes.is_empty());
    }
    scored
}

fn assert_same_assignment(got: &TagAssignment, want: &TagAssignment, text: &str) {
    assert_eq!(got.tag, want.tag, "tag for {text:?}");
    assert_eq!(got.category, want.category, "category for {text:?}");
    assert_eq!(got.score.to_bits(), want.score.to_bits(), "score for {text:?}");
    assert_eq!(got.margin.to_bits(), want.margin.to_bits(), "margin for {text:?}");
    assert_eq!(got.ambiguous, want.ambiguous, "ambiguous for {text:?}");
    assert_eq!(got.matched_keywords, want.matched_keywords, "keywords for {text:?}");
}

fn assert_same_vote(got: &TagVote, want: &TagVote, text: &str) {
    assert_eq!(got.tag, want.tag, "ballot tag for {text:?}");
    assert_eq!(got.score.to_bits(), want.score.to_bits(), "ballot score for {text:?}");
    assert_eq!(
        got.matched_keywords, want.matched_keywords,
        "ballot keywords for {text:?}"
    );
}

fn corpus_descriptions(seed: u64) -> Vec<String> {
    CorpusGenerator::new(CorpusConfig { seed, scale: 1.0 })
        .generate()
        .truth
        .disengagements()
        .iter()
        .map(|r| r.description.clone())
        .collect()
}

#[test]
fn full_corpora_match_the_spec() {
    let dict = FailureDictionary::default_bank();
    for seed in [0x5EED, 1, 2] {
        let texts = corpus_descriptions(seed);
        assert!(texts.len() > 5000, "seed {seed}: a full-scale corpus");
        let scored = assert_equivalent(&dict, texts.iter().map(String::as_str));
        assert!(scored * 10 > texts.len() * 9, "seed {seed}: most records score");
    }
}

#[test]
fn poisoned_dictionaries_match_the_spec() {
    let texts: BTreeSet<String> = corpus_descriptions(3).into_iter().collect();
    let dict = FailureDictionary::default_bank();
    for (case, rate) in [0.05, 0.2, 0.5, 0.9, 1.0].into_iter().enumerate() {
        let (poisoned, _) = poison_dictionary(&FaultPlan::new(rate, case as u64), &dict);
        assert_equivalent(&poisoned, texts.iter().map(String::as_str));
    }
}

/// A dictionary whose stems collide with stop words: `safely` and
/// `resumed` are stop words stemming to `safe` and `resum`, which here
/// are keywords — they must not vote as keywords, yet still complete
/// phrases.
fn stop_word_collisions() -> FailureDictionary {
    let mut d = FailureDictionary::default_bank();
    d.add_phrase(FaultTag::Software, "safe stop engaged");
    d.add_phrase(FaultTag::Software, "resuming control");
    d.add_phrase(FaultTag::Planner, "result code");
    d.add_phrase(FaultTag::Network, "software crash");
    d.add_phrase(FaultTag::Network, "software crashes");
    d.add_phrase(FaultTag::Sensor, "x");
    d.add_phrase(FaultTag::Sensor, "--- ---");
    d
}

fn random_text(rng: &mut StdRng, vocabulary: &[String]) -> String {
    const STOP: &[&str] = &["the", "of", "to", "safely", "resumed", "result", "was", "not"];
    const SEPARATORS: &[&str] = &[" ", " ", " ", "/", "-", "—", "–", ", ", ". ", "é", "\t"];
    const SUFFIXES: &[&str] = &["", "", "s", "ed", "ing", "ation", "ly", "ers", "ement"];
    if rng.gen_range(0..20u32) == 0 {
        return String::new();
    }
    let words = rng.gen_range(0..14usize);
    let mut text = String::new();
    for _ in 0..words {
        let word = match rng.gen_range(0..10u32) {
            0..=4 => {
                let base = &vocabulary[rng.gen_range(0..vocabulary.len())];
                let suffix = SUFFIXES[rng.gen_range(0..SUFFIXES.len())];
                format!("{base}{suffix}")
            }
            5 | 6 => STOP[rng.gen_range(0..STOP.len())].to_owned(),
            7 => rng.gen_range(0..100_000u32).to_string(),
            8 => (0..rng.gen_range(1..8usize))
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect(),
            _ => "Δ§".to_owned(),
        };
        let word = if rng.gen_range(0..4u32) == 0 {
            word.to_ascii_uppercase()
        } else {
            word
        };
        text.push_str(&word);
        text.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
    }
    text
}

#[test]
fn seeded_random_text_matches_the_spec() {
    let dict = stop_word_collisions();
    let vocabulary: Vec<String> = FaultTag::ALL
        .iter()
        .flat_map(|&t| dict.phrases(t))
        .flat_map(|p| p.split(|c: char| !c.is_ascii_alphanumeric()))
        .filter(|w| !w.is_empty())
        .map(str::to_owned)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut rng = StdRng::seed_from_u64(0xE0_1AC7);
    let mut texts: Vec<String> = (0..20_000).map(|_| random_text(&mut rng, &vocabulary)).collect();
    texts.extend(
        [
            "",
            "   ",
            "safely",
            "safe",
            "safely stop engaged",
            "resumed control",
            "resuming control",
            "result code 7",
            "software crashes and software crash",
            "x x x",
            "takeover—request — software—crash",
            "WATCHDOG ERROR",
        ]
        .map(str::to_owned),
    );
    let scored = assert_equivalent(&dict, texts.iter().map(String::as_str));
    assert!(scored > 5_000, "random text reaches the vote: {scored}");
}

#[test]
fn a_tag_with_hundreds_of_keywords_matches_the_spec() {
    let mut rng = StdRng::seed_from_u64(0x128);
    let words: Vec<String> = (0..300)
        .map(|i| {
            let stem: String = (0..6)
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect();
            format!("{stem}{i}")
        })
        .collect();
    let mut dict = FailureDictionary::new();
    for pair in words.chunks(2) {
        dict.add_phrase(FaultTag::Software, &pair.join(" "));
    }
    for w in &words[..40] {
        dict.add_phrase(FaultTag::Sensor, w);
    }
    let wide = Classifier::new(dict.clone());
    assert!(
        dict.keyword_set(FaultTag::Software).len() > 128,
        "one tag holds more keywords than a 128-bit mask"
    );
    let mut texts = vec![words.join(" "), words[..200].join(", ")];
    for _ in 0..200 {
        let n = rng.gen_range(0..words.len());
        let text: Vec<&str> = (0..n)
            .map(|_| words[rng.gen_range(0..words.len())].as_str())
            .collect();
        texts.push(text.join(" "));
    }
    assert_equivalent(&dict, texts.iter().map(String::as_str));
    let all = wide.classify(&texts[0]);
    assert_eq!(all.tag, FaultTag::Software);
    assert_eq!(all.matched_keywords.len(), 300);
}
