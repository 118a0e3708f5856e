//! The keyword-voting classifier (step 3 of the pipeline).
//!
//! Each tag votes with the number of its dictionary keywords found in the
//! normalized description; contiguous full-phrase matches vote with
//! double weight. The highest score wins; a zero score falls back to
//! `Unknown-T`, exactly as the paper describes.

use crate::dictionary::FailureDictionary;
use crate::normalize::{is_stop_word, stem_str};
use crate::ontology::{FailureCategory, FaultTag};
use std::cell::RefCell;
use std::collections::HashMap;

pub mod spec;

/// The classifier's verdict for one description.
#[derive(Debug, Clone, PartialEq)]
pub struct TagAssignment {
    /// Winning fault tag (`Unknown-T` when nothing matched).
    pub tag: FaultTag,
    /// Root category implied by the tag.
    pub category: FailureCategory,
    /// The winning score (keyword votes; 0 for `Unknown-T`).
    pub score: f64,
    /// Vote margin: winning score minus the best losing score (0 when
    /// nothing matched or another tag tied). Low margins flag verdicts
    /// that one extra keyword could have flipped.
    pub margin: f64,
    /// Normalized keywords that matched the winning tag.
    pub matched_keywords: Vec<String>,
    /// Whether another tag tied the winning score (diagnostic for the
    /// manual-verification pass the paper describes).
    pub ambiguous: bool,
}

/// One tag's vote tally for a description — the per-candidate
/// breakdown behind a [`TagAssignment`]. Only tags that scored are
/// reported, in [`FaultTag::ALL`] order (so the list is deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct TagVote {
    /// The candidate tag.
    pub tag: FaultTag,
    /// Its keyword + phrase score.
    pub score: f64,
    /// Normalized keywords that hit for this tag.
    pub matched_keywords: Vec<String>,
}

/// Keyword-voting classifier over a [`FailureDictionary`].
///
/// Construction compiles the dictionary once: every stemmed keyword and
/// phrase token is interned as a `u32` id, each id carries its postings
/// (the keywords it is, across tags) and the phrases it opens. A
/// description is then tagged in one pass over its bytes — tokenize,
/// stem and look up each word into a reused id buffer, collect keyword
/// hits for non-stop words, verify candidate phrases against the ids
/// that follow — with no per-token allocation. [`spec::SpecClassifier`]
/// is the string-set reading of the same rule, kept as the reference.
#[derive(Debug, Clone)]
pub struct Classifier {
    dictionary: FailureDictionary,
    /// Stemmed token → interned id.
    vocab: HashMap<Box<str>, u32>,
    /// Per id: the keywords it matches and the phrases it opens.
    entries: Vec<TokenEntry>,
    /// Every tag's keywords, grouped by tag in [`FaultTag::ALL`] order
    /// and byte-lexicographic within a tag — so ascending keyword
    /// indices are exactly the spec's `BTreeSet` iteration order.
    keywords: Vec<(FaultTag, String)>,
    /// Every multi-token phrase (`tag`, its token ids).
    phrases: Vec<(FaultTag, Box<[u32]>)>,
}

/// What one interned token id contributes to the vote.
#[derive(Debug, Clone, Default)]
struct TokenEntry {
    /// Indices into [`Classifier::keywords`].
    keywords: Vec<u32>,
    /// Indices into [`Classifier::phrases`] whose first token is this id.
    phrases: Vec<u32>,
}

/// Id of a description token that is not in the dictionary vocabulary.
const UNKNOWN_TOKEN: u32 = u32::MAX;

/// Per-thread buffers reused across descriptions.
#[derive(Default)]
struct Scratch {
    /// Lowercased copy of a token that had uppercase letters.
    lower: String,
    /// Token ids of the description, in order.
    ids: Vec<u32>,
    /// Keyword indices hit (sorted and deduplicated before scoring).
    keyword_hits: Vec<u32>,
    /// Phrase indices matched (sorted and deduplicated before scoring).
    phrase_hits: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Classifier {
    /// Builds a classifier from a dictionary, compiling it into interned
    /// token tables.
    pub fn new(dictionary: FailureDictionary) -> Classifier {
        let mut vocab: HashMap<Box<str>, u32> = HashMap::new();
        let mut entries: Vec<TokenEntry> = Vec::new();
        let mut intern = |token: &str| -> u32 {
            if let Some(&id) = vocab.get(token) {
                return id;
            }
            let id = entries.len() as u32;
            vocab.insert(token.into(), id);
            entries.push(TokenEntry::default());
            id
        };
        let mut keywords = Vec::new();
        let mut keyword_ids = Vec::new();
        let mut phrases = Vec::new();
        for tag in FaultTag::ALL {
            if tag == FaultTag::UnknownT {
                continue;
            }
            for keyword in dictionary.keyword_set(tag) {
                keyword_ids.push(intern(&keyword));
                keywords.push((tag, keyword));
            }
            for phrase in dictionary.phrase_tokens(tag) {
                if phrase.len() >= 2 {
                    let ids: Box<[u32]> = phrase.iter().map(|t| intern(t)).collect();
                    phrases.push((tag, ids));
                }
            }
        }
        for (k, &id) in keyword_ids.iter().enumerate() {
            entries[id as usize].keywords.push(k as u32);
        }
        for (p, (_, ids)) in phrases.iter().enumerate() {
            entries[ids[0] as usize].phrases.push(p as u32);
        }
        Classifier {
            dictionary,
            vocab,
            entries,
            keywords,
            phrases,
        }
    }

    /// Builds a classifier over the paper-derived default dictionary.
    pub fn with_default_dictionary() -> Classifier {
        Classifier::new(FailureDictionary::default_bank())
    }

    /// The dictionary backing this classifier.
    pub fn dictionary(&self) -> &FailureDictionary {
        &self.dictionary
    }

    /// Classifies one free-text cause description.
    ///
    /// # Examples
    ///
    /// ```
    /// # use disengage_nlp::vote::Classifier;
    /// # use disengage_nlp::ontology::FaultTag;
    /// let c = Classifier::with_default_dictionary();
    /// assert_eq!(c.classify("watchdog error").tag, FaultTag::HangCrash);
    /// assert_eq!(c.classify("odd noise").tag, FaultTag::UnknownT);
    /// ```
    pub fn classify(&self, description: &str) -> TagAssignment {
        self.vote(description, false).0
    }

    /// [`Classifier::classify`], also returning every scoring tag's
    /// [`TagVote`] — the full ballot the verdict was decided from. The
    /// verdict is computed by the same single pass, so the detailed and
    /// plain forms can never disagree.
    pub fn classify_detailed(&self, description: &str) -> (TagAssignment, Vec<TagVote>) {
        self.vote(description, true)
    }

    /// Classifies a batch of descriptions.
    pub fn classify_all<'a, I>(&self, descriptions: I) -> Vec<TagAssignment>
    where
        I: IntoIterator<Item = &'a str>,
    {
        descriptions.into_iter().map(|d| self.classify(d)).collect()
    }

    /// The vote itself; the ballot is built only when `ballot` is set.
    fn vote(&self, description: &str, ballot: bool) -> (TagAssignment, Vec<TagVote>) {
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let (keyword_hits, phrase_hits) = self.hits(description, scratch);
            self.decide(keyword_hits, phrase_hits, ballot)
        })
    }

    /// Tokenizes `description` (maximal ASCII-alphanumeric runs,
    /// lowercased — [`crate::token::tokenize`]'s rule), stems and looks
    /// up each token, and returns the sorted, distinct keyword and
    /// phrase indices it hits.
    fn hits<'s>(&self, description: &str, scratch: &'s mut Scratch) -> (&'s [u32], &'s [u32]) {
        let Scratch {
            lower,
            ids,
            keyword_hits,
            phrase_hits,
        } = scratch;
        ids.clear();
        keyword_hits.clear();
        phrase_hits.clear();
        let bytes = description.as_bytes();
        let mut end = 0;
        while end < bytes.len() {
            let start = end;
            while end < bytes.len() && bytes[end].is_ascii_alphanumeric() {
                end += 1;
            }
            if start == end {
                end += 1;
                continue;
            }
            // ASCII bytes only, so these are char boundaries.
            let mut token = &description[start..end];
            if token.bytes().any(|b| b.is_ascii_uppercase()) {
                lower.clear();
                lower.push_str(token);
                lower.make_ascii_lowercase();
                token = lower.as_str();
            }
            let id = self
                .vocab
                .get(stem_str(token))
                .copied()
                .unwrap_or(UNKNOWN_TOKEN);
            ids.push(id);
            if id != UNKNOWN_TOKEN {
                let postings = &self.entries[id as usize].keywords;
                if !postings.is_empty() && !is_stop_word(token) {
                    keyword_hits.extend_from_slice(postings);
                }
            }
        }
        // Contiguous phrase matches: each candidate opened by a token is
        // verified against the ids that follow it.
        for (i, &id) in ids.iter().enumerate() {
            if id == UNKNOWN_TOKEN {
                continue;
            }
            for &p in &self.entries[id as usize].phrases {
                if ids[i + 1..].starts_with(&self.phrases[p as usize].1[1..]) {
                    phrase_hits.push(p);
                }
            }
        }
        keyword_hits.sort_unstable();
        keyword_hits.dedup();
        phrase_hits.sort_unstable();
        phrase_hits.dedup();
        (keyword_hits, phrase_hits)
    }

    /// Scores every tag from its distinct keyword hits plus its matched
    /// phrases' lengths and picks the verdict: the first top scorer in
    /// [`FaultTag::ALL`] order, ambiguous when a later tag ties it.
    /// Scores are integers, so comparing them exactly is the spec's
    /// epsilon comparison of the same sums as `f64`.
    fn decide(
        &self,
        keyword_hits: &[u32],
        phrase_hits: &[u32],
        ballot: bool,
    ) -> (TagAssignment, Vec<TagVote>) {
        let mut scores = [0u32; FaultTag::ALL.len()];
        for &k in keyword_hits {
            scores[self.keywords[k as usize].0.index()] += 1;
        }
        for &p in phrase_hits {
            let (tag, ids) = &self.phrases[p as usize];
            scores[tag.index()] += ids.len() as u32;
        }
        let matched = |tag: FaultTag| -> Vec<String> {
            keyword_hits
                .iter()
                .map(|&k| &self.keywords[k as usize])
                .filter(|(t, _)| *t == tag)
                .map(|(_, keyword)| keyword.clone())
                .collect()
        };

        let mut best: Option<(FaultTag, u32)> = None;
        let mut second_score = 0u32;
        let mut ambiguous = false;
        let mut votes = Vec::new();
        for tag in FaultTag::ALL {
            let score = scores[tag.index()];
            if score == 0 {
                continue;
            }
            if ballot {
                votes.push(TagVote {
                    tag,
                    score: f64::from(score),
                    matched_keywords: matched(tag),
                });
            }
            match best {
                Some((_, best_score)) if score < best_score => {
                    second_score = second_score.max(score);
                }
                Some((_, best_score)) if score == best_score => {
                    ambiguous = true;
                    second_score = best_score;
                }
                _ => {
                    if let Some((_, prev_best)) = best {
                        second_score = second_score.max(prev_best);
                    }
                    ambiguous = false;
                    best = Some((tag, score));
                }
            }
        }

        let assignment = match best {
            Some((tag, score)) => TagAssignment {
                tag,
                category: tag.category(),
                score: f64::from(score),
                margin: f64::from(score - second_score),
                matched_keywords: matched(tag),
                ambiguous,
            },
            None => TagAssignment {
                tag: FaultTag::UnknownT,
                category: FailureCategory::UnknownC,
                score: 0.0,
                margin: 0.0,
                matched_keywords: Vec::new(),
                ambiguous: false,
            },
        };
        (assignment, votes)
    }
}

#[cfg(test)]
mod margin_tests {
    use super::*;

    #[test]
    fn margin_zero_when_unknown_or_tied() {
        let c = Classifier::with_default_dictionary();
        let unknown = c.classify("odd noise");
        assert_eq!(unknown.tag, FaultTag::UnknownT);
        assert_eq!(unknown.margin, 0.0);
        // A clear single-tag winner has a positive margin no larger than
        // its score.
        let clear = c.classify("watchdog error");
        assert!(clear.margin > 0.0);
        assert!(clear.margin <= clear.score);
        // An ambiguous verdict (tie) reports zero margin.
        let all: Vec<TagAssignment> = c.classify_all(
            ["software module froze", "the AV didn't see the lead vehicle"],
        );
        for a in &all {
            if a.ambiguous {
                assert_eq!(a.margin, 0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c() -> Classifier {
        Classifier::with_default_dictionary()
    }

    #[test]
    fn paper_table_two_samples() {
        // Table II's four raw logs and their expected tags.
        let cases = [
            (
                "Software module froze. As a result driver safely disengaged and resumed manual control.",
                FaultTag::Software,
                FailureCategory::System,
            ),
            (
                "The AV didn't see the lead vehicle, driver safely disengaged and resumed manual control.",
                FaultTag::RecognitionSystem,
                FailureCategory::MlDesign,
            ),
            (
                "Disengage for a recklessly behaving road user",
                FaultTag::Environment,
                FailureCategory::MlDesign,
            ),
            ("watchdog error", FaultTag::HangCrash, FailureCategory::System),
        ];
        let cl = c();
        for (text, tag, cat) in cases {
            let a = cl.classify(text);
            assert_eq!(a.tag, tag, "text: {text}");
            assert_eq!(a.category, cat, "text: {text}");
            assert!(a.score > 0.0);
        }
    }

    #[test]
    fn case_study_phrases() {
        let cl = c();
        let a = cl.classify("incorrect behavior prediction");
        assert_eq!(a.tag, FaultTag::IncorrectBehaviorPrediction);
        assert_eq!(a.category, FailureCategory::MlDesign);
    }

    #[test]
    fn av_controller_split_by_context() {
        let cl = c();
        let sys = cl.classify("the AV controller did not respond to commands from the planner");
        assert_eq!(sys.tag, FaultTag::AvControllerUnresponsive);
        assert_eq!(sys.category, FailureCategory::System);
        let ml = cl.classify("the controller made a wrong decision at the intersection");
        assert_eq!(ml.tag, FaultTag::AvControllerDecision);
        assert_eq!(ml.category, FailureCategory::MlDesign);
    }

    #[test]
    fn unmatched_falls_back_to_unknown() {
        let a = c().classify("operator ended the session early");
        assert_eq!(a.tag, FaultTag::UnknownT);
        assert_eq!(a.category, FailureCategory::UnknownC);
        assert_eq!(a.score, 0.0);
        assert!(a.matched_keywords.is_empty());
    }

    #[test]
    fn empty_description_unknown() {
        assert_eq!(c().classify("").tag, FaultTag::UnknownT);
    }

    #[test]
    fn phrase_match_outvotes_stray_keyword() {
        // "planner" appears, but the full recognition phrase should win.
        let a = c().classify(
            "perception missed the pedestrian; planner was fine, recognition failure confirmed",
        );
        assert_eq!(a.tag, FaultTag::RecognitionSystem);
    }

    #[test]
    fn inflected_forms_match_via_stemming() {
        let cl = c();
        // Dictionary has "failed to detect"; log says "detection failures".
        let a = cl.classify("repeated detection failures near the crosswalk");
        assert_eq!(a.tag, FaultTag::RecognitionSystem, "{a:?}");
    }

    #[test]
    fn matched_keywords_reported() {
        let a = c().classify("gps signal lost in the tunnel");
        assert_eq!(a.tag, FaultTag::Sensor);
        assert!(a.matched_keywords.iter().any(|k| k == "gps"));
        assert!(a.matched_keywords.iter().any(|k| k == "signal"));
    }

    #[test]
    fn classify_all_batches() {
        let out = c().classify_all(["watchdog error", "gps signal lost"]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tag, FaultTag::HangCrash);
        assert_eq!(out[1].tag, FaultTag::Sensor);
    }

    #[test]
    fn detailed_ballot_contains_the_winner_and_only_scorers() {
        let cl = c();
        let (assignment, votes) = cl.classify_detailed(
            "perception missed the pedestrian; planner was fine, recognition failure confirmed",
        );
        assert_eq!(assignment, cl.classify(
            "perception missed the pedestrian; planner was fine, recognition failure confirmed",
        ));
        assert!(!votes.is_empty());
        let winner = votes
            .iter()
            .find(|v| v.tag == assignment.tag)
            .expect("winner is on the ballot");
        assert_eq!(winner.score, assignment.score);
        assert_eq!(winner.matched_keywords, assignment.matched_keywords);
        for v in &votes {
            assert!(v.score > 0.0, "only scoring tags are reported: {v:?}");
            assert!(v.score <= assignment.score);
        }
        // Unknown text yields an empty ballot.
        let (unknown, no_votes) = cl.classify_detailed("odd noise");
        assert_eq!(unknown.tag, FaultTag::UnknownT);
        assert!(no_votes.is_empty());
    }

    #[test]
    fn custom_dictionary() {
        let mut d = FailureDictionary::new();
        d.add_phrase(FaultTag::Software, "blue screen");
        let cl = Classifier::new(d);
        assert_eq!(cl.classify("blue screen of death").tag, FaultTag::Software);
        assert_eq!(cl.classify("watchdog error").tag, FaultTag::UnknownT);
    }
}
