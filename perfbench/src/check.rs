//! Answer checks. Every reply is checked, and every failure counts against
//! `fail_ratio`:
//!
//! * a model answer (neither cached nor degraded) must equal the in-process
//!   `LearnedSketch::predict` of the same query text, bit for bit;
//! * a cached answer must equal, bit for bit, a model answer its
//!   isomorphism class got in this run: the first one, or a later one if
//!   the class was evicted and recomputed from another numbering;
//! * a degraded answer must belong to a `deadline_ms: 0` request and equal
//!   the in-process `engine::fallback_outcome`, and every `deadline_ms: 0`
//!   request must be degraded, so the degraded share equals the scheduled
//!   share exactly.

use alss_serve::proto::from_line;
use alss_serve::Response;
use std::collections::{HashMap, HashSet};

/// An answer as compared: the bits of `log10` and the magnitude class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Answer {
    /// `log10.to_bits()`.
    pub log10_bits: u64,
    /// Magnitude class.
    pub magnitude_class: u64,
}

impl Answer {
    /// From a `log10` estimate and its magnitude class.
    pub fn new(log10: f64, magnitude_class: u64) -> Self {
        Answer {
            log10_bits: log10.to_bits(),
            magnitude_class,
        }
    }

    fn of(r: &Response) -> Self {
        Self::new(r.log10, r.magnitude_class)
    }
}

/// What the checker knows about one sent request.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    /// Request id.
    pub id: u64,
    /// Isomorphism class.
    pub class: usize,
    /// Sent with `deadline_ms: 0`.
    pub deadline0: bool,
}

/// A parsed reply, or why there is none.
pub type Reply = Result<Response, String>;

/// Parse a raw reply line with the server's own protocol parser.
pub fn parse(raw: &Result<String, String>) -> Reply {
    match raw {
        Ok(line) => from_line::<Response>(line),
        Err(e) => Err(e.clone()),
    }
}

/// Indices of the requests that need an in-process model answer and of
/// those that need a fallback answer.
pub fn needed(sent: &[Sent], replies: &[Reply]) -> (Vec<usize>, Vec<usize>) {
    let mut model = Vec::new();
    let mut fallback = Vec::new();
    for (i, (s, r)) in sent.iter().zip(replies).enumerate() {
        let Ok(r) = r else { continue };
        if r.degraded || s.deadline0 {
            fallback.push(i);
        } else if r.ok && !r.cached {
            model.push(i);
        }
    }
    (model, fallback)
}

/// Outcome of checking a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests checked.
    pub checked: usize,
    /// Requests whose answer failed a check.
    pub failed: usize,
    /// Model answers.
    pub misses: usize,
    /// Cached answers.
    pub hits: usize,
    /// Degraded answers.
    pub degraded: usize,
    /// Requests sent with `deadline_ms: 0`.
    pub deadline0: usize,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, id: u64, why: impl Into<String>) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(format!("request {id}: {}", why.into()));
        }
    }
}

/// Check every reply against the in-process answers (`model` and
/// `fallback`, keyed by request index, as listed by [`needed`]).
pub fn check(
    sent: &[Sent],
    replies: &[Reply],
    model: &HashMap<usize, Answer>,
    fallback: &HashMap<usize, Answer>,
) -> Verdict {
    let mut v = Verdict {
        checked: sent.len(),
        ..Verdict::default()
    };
    let mut class_answers: HashMap<usize, HashSet<Answer>> = HashMap::new();
    let mut hits = Vec::new();
    for (i, (s, r)) in sent.iter().zip(replies).enumerate() {
        if s.deadline0 {
            v.deadline0 += 1;
        }
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                v.fail(s.id, format!("no reply: {e}"));
                continue;
            }
        };
        if !r.ok {
            v.fail(s.id, format!("ok:false: {}", r.error));
        } else if r.id != s.id {
            v.fail(s.id, format!("reply carries id {}", r.id));
        } else if r.degraded {
            v.degraded += 1;
            if !s.deadline0 {
                v.fail(s.id, "degraded without a deadline");
            } else if fallback.get(&i) != Some(&Answer::of(r)) {
                v.fail(s.id, "degraded answer differs from engine::fallback_outcome");
            }
        } else if s.deadline0 {
            v.fail(s.id, "deadline-0 request was not degraded");
        } else if r.cached {
            v.hits += 1;
            hits.push((i, Answer::of(r)));
        } else {
            v.misses += 1;
            if model.get(&i) == Some(&Answer::of(r)) {
                class_answers.entry(s.class).or_default().insert(Answer::of(r));
            } else {
                v.fail(s.id, "model answer differs from in-process LearnedSketch::predict");
            }
        }
    }
    for (i, a) in hits {
        let known = class_answers
            .get(&sent[i].class)
            .is_some_and(|set| set.contains(&a));
        if !known {
            v.fail(sent[i].id, "cached answer matches no model answer of its class");
        }
    }
    if v.degraded != v.deadline0 && v.failed == 0 {
        let why = format!(
            "degraded answers {} != scheduled deadline-0 requests {}",
            v.degraded, v.deadline0
        );
        v.fail(0, why);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(id: u64, log10: f64, cached: bool, degraded: bool) -> Reply {
        Ok(Response {
            id,
            ok: true,
            log10,
            magnitude_class: 1,
            cached,
            degraded,
            ..Response::default()
        })
    }

    type Run = (Vec<Sent>, Vec<Reply>, HashMap<usize, Answer>, HashMap<usize, Answer>);

    /// Request 1 is a model miss of class 7, request 2 a hit of class 7,
    /// request 3 a deadline-0 request answered by the fallback.
    fn run() -> Run {
        let sent = vec![
            Sent { id: 1, class: 7, deadline0: false },
            Sent { id: 2, class: 7, deadline0: false },
            Sent { id: 3, class: 8, deadline0: true },
        ];
        let replies = vec![
            reply(1, 2.5, false, false),
            reply(2, 2.5, true, false),
            reply(3, 0.75, false, true),
        ];
        let model = HashMap::from([(0, Answer::new(2.5, 1))]);
        let fallback = HashMap::from([(2, Answer::new(0.75, 1))]);
        (sent, replies, model, fallback)
    }

    fn nudge(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    #[test]
    fn a_clean_run_passes() {
        let (sent, replies, model, fallback) = run();
        let (need_model, need_fallback) = needed(&sent, &replies);
        assert_eq!(need_model, vec![0]);
        assert_eq!(need_fallback, vec![2]);
        let v = check(&sent, &replies, &model, &fallback);
        assert_eq!(v.failed, 0, "{:?}", v.examples);
        assert_eq!((v.misses, v.hits, v.degraded, v.deadline0), (1, 1, 1, 1));
    }

    #[test]
    fn a_perturbed_model_answer_is_flagged() {
        let (sent, mut replies, model, fallback) = run();
        replies[0] = reply(1, nudge(2.5), false, false);
        let v = check(&sent, &replies, &model, &fallback);
        // The miss fails, and the hit then matches no accepted answer.
        assert_eq!(v.failed, 2, "{:?}", v.examples);
    }

    #[test]
    fn a_perturbed_hit_is_flagged() {
        let (sent, mut replies, model, fallback) = run();
        replies[1] = reply(2, nudge(2.5), true, false);
        assert_eq!(check(&sent, &replies, &model, &fallback).failed, 1);
    }

    #[test]
    fn a_perturbed_fallback_answer_is_flagged() {
        let (sent, mut replies, model, fallback) = run();
        replies[2] = reply(3, nudge(0.75), false, true);
        assert_eq!(check(&sent, &replies, &model, &fallback).failed, 1);
    }

    #[test]
    fn degraded_share_must_match_the_schedule() {
        let (sent, mut replies, model, fallback) = run();
        // The deadline-0 request answered by the model.
        replies[2] = reply(3, 0.75, false, false);
        let v = check(&sent, &replies, &model, &fallback);
        assert_eq!(v.failed, 1);
        assert_eq!(v.degraded, 0);
        // A degraded answer nobody asked for.
        let (sent, mut replies, model, fallback) = run();
        replies[0] = reply(1, 2.5, false, true);
        assert!(check(&sent, &replies, &model, &fallback).failed >= 1);
    }

    #[test]
    fn missing_and_mislabelled_replies_fail() {
        let (sent, mut replies, model, fallback) = run();
        replies[0] = Err("timed out".to_string());
        replies[2] = reply(99, 0.75, false, true);
        let v = check(&sent, &replies, &model, &fallback);
        // Request 1 timed out, request 2's hit has no class answer, and
        // request 3 carries the wrong id.
        assert_eq!(v.failed, 3, "{:?}", v.examples);
    }

    #[test]
    fn replies_parse_with_the_protocol_parser() {
        let line = r#"{"id":4,"ok":true,"estimate":10.0,"log10":1.0,"magnitude_class":1,"degraded":false,"cached":true,"latency_us":12,"error":""}"#;
        let r = parse(&Ok(line.to_string())).unwrap();
        assert!(r.cached && r.id == 4 && r.latency_us == 12);
        assert!(parse(&Err("closed".to_string())).is_err());
    }
}
