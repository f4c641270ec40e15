//! The answer check. It runs outside every timed region.
//!
//! The reference answer of each query is per-query ITG/S. A reference path
//! must pass [`validate_path`]; every answer the benchmark then receives
//! (ITG/S, ITG/A, per query or in a batch) must be bit-identical to it, so a
//! received path is valid exactly when its reference is. For the default
//! seed the reference lengths must also match the committed ones.

use indoor_space::IndoorSpace;
use indoor_time::Velocity;
use itspq_core::{validate_path, Path, Query, QueryError, QueryResult};

/// FNV-1a over the bit patterns of a path (or of "no route").
fn fingerprint(path: Option<&Path>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    let Some(p) = path else {
        eat(u64::MAX);
        return h;
    };
    for point in [&p.source, &p.target] {
        eat(point.partition.index() as u64);
        eat(point.position.x.to_bits());
        eat(point.position.y.to_bits());
    }
    eat(p.length.to_bits());
    eat(p.departure.seconds().to_bits());
    eat(p.arrival.seconds().to_bits());
    eat(p.hops.len() as u64);
    for hop in &p.hops {
        eat(hop.door.index() as u64);
        eat(hop.via_partition.index() as u64);
        eat(hop.distance.to_bits());
        eat(hop.arrival.seconds().to_bits());
    }
    h
}

/// Reference answers of a query pool.
pub struct Reference {
    fingerprints: Vec<u64>,
    /// `false` when the reference itself is wrong (an error, an invalid path
    /// or a length off the committed record): every answer to that query
    /// then counts as failed.
    sound: Vec<bool>,
    lengths: Vec<Option<f64>>,
}

impl Reference {
    /// Checks the per-query ITG/S answers `answers` of `queries` and keeps
    /// them as the reference.
    pub fn new(
        space: &IndoorSpace,
        velocity: Velocity,
        queries: &[Query],
        answers: &[Result<QueryResult, QueryError>],
    ) -> Self {
        let mut r = Reference {
            fingerprints: Vec::with_capacity(queries.len()),
            sound: Vec::with_capacity(queries.len()),
            lengths: Vec::with_capacity(queries.len()),
        };
        for (q, a) in queries.iter().zip(answers) {
            let path = a.as_ref().ok().and_then(|res| res.path.as_ref());
            let valid =
                a.is_ok() && path.is_none_or(|p| validate_path(space, p, q.time, velocity).is_ok());
            r.fingerprints.push(fingerprint(path));
            r.sound.push(valid);
            r.lengths.push(path.map(|p| p.length));
        }
        r
    }

    /// Does `answer` to query `i` pass the check?
    pub fn accepts(&self, i: usize, answer: &Result<QueryResult, QueryError>) -> bool {
        self.sound[i]
            && answer
                .as_ref()
                .is_ok_and(|r| fingerprint(r.path.as_ref()) == self.fingerprints[i])
    }

    /// Queries whose reference is unsound.
    pub fn unsound(&self) -> usize {
        self.sound.iter().filter(|s| !**s).count()
    }

    /// One line per query: the path length (shortest round-trip decimal) or
    /// `none` for "no such routes".
    pub fn lengths_text(&self) -> String {
        let mut out = String::new();
        for l in &self.lengths {
            match l {
                Some(v) => out.push_str(&format!("{v}\n")),
                None => out.push_str("none\n"),
            }
        }
        out
    }

    /// Marks every query whose length differs from the committed record
    /// `text` (one line per query, as [`Reference::lengths_text`] writes) as
    /// unsound; returns how many differ. A record of another length marks
    /// every query.
    pub fn compare_lengths(&mut self, text: &str) -> usize {
        let ours = self.lengths_text();
        let mut differ = 0;
        if ours.lines().count() != text.lines().count() {
            self.sound.iter_mut().for_each(|s| *s = false);
            return self.sound.len();
        }
        for (i, (a, b)) in ours.lines().zip(text.lines()).enumerate() {
            if a != b.trim() {
                self.sound[i] = false;
                differ += 1;
            }
        }
        differ
    }
}

/// Feeds corrupted copies of a correct answer to the check: a length one
/// ulp off, a dropped hop, and "no route" in place of a path. Returns whether
/// the check rejected all of them (`None` when no query has a path).
pub fn check_catches_corruption(
    reference: &Reference,
    answers: &[Result<QueryResult, QueryError>],
) -> Option<bool> {
    let (i, good) = answers.iter().enumerate().find_map(|(i, a)| {
        let r = a.as_ref().ok()?;
        (!r.path.as_ref()?.hops.is_empty() && reference.accepts(i, a)).then_some((i, r))
    })?;
    let corrupt = |f: &dyn Fn(&mut Option<Path>)| {
        let mut bad = good.clone();
        f(&mut bad.path);
        !reference.accepts(i, &Ok(bad))
    };
    Some(
        corrupt(&|p| {
            let p = p.as_mut().expect("the chosen answer has a path");
            p.length = f64::from_bits(p.length.to_bits() + 1);
        }) && corrupt(&|p| {
            p.as_mut().expect("the chosen answer has a path").hops.pop();
        }) && corrupt(&|p| *p = None),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use indoor_space::paper_example;
    use indoor_time::TimeOfDay;
    use itspq_core::{ItGraph, ItspqConfig, SynEngine};

    fn example() -> (paper_example::PaperExample, Vec<Query>, SynEngine) {
        let ex = paper_example::build();
        let queries = vec![
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(9, 0)),
            Query::new(ex.p3, ex.p4, TimeOfDay::hm(23, 30)),
        ];
        let engine = SynEngine::new(ItGraph::new(ex.space.clone()), ItspqConfig::full_relax());
        (ex, queries, engine)
    }

    #[test]
    fn corrupted_answers_count_as_failed() {
        let (ex, queries, engine) = example();
        let answers: Vec<_> = queries.iter().map(|q| engine.try_query(q)).collect();
        let reference = Reference::new(
            &ex.space,
            ItspqConfig::full_relax().velocity,
            &queries,
            &answers,
        );
        assert_eq!(reference.unsound(), 0);
        assert!(reference.accepts(0, &answers[0]));
        assert!(reference.accepts(1, &answers[1]));
        assert!(!reference.accepts(0, &answers[1]));
        assert_eq!(check_catches_corruption(&reference, &answers), Some(true));
    }

    #[test]
    fn committed_lengths_are_compared_line_by_line() {
        let (ex, queries, engine) = example();
        let answers: Vec<_> = queries.iter().map(|q| engine.try_query(q)).collect();
        let velocity = ItspqConfig::full_relax().velocity;
        let mut reference = Reference::new(&ex.space, velocity, &queries, &answers);
        let text = reference.lengths_text();
        assert_eq!(text.lines().nth(1), Some("none"));
        assert_eq!(reference.compare_lengths(&text), 0);
        assert_eq!(reference.compare_lengths("12.5\nnone\n"), 1);
        assert!(!reference.accepts(0, &answers[0]));
        assert!(reference.accepts(1, &answers[1]));
    }
}
