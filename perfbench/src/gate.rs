//! The correctness gate: served answers must be bit-identical (SQL text
//! plus score bits) to a reference twin built independently of the
//! serving path.

use std::collections::BTreeMap;

use quest_core::{FullAccessWrapper, KeywordQuery, Quest, QuestConfig, SearchOutcome};
use quest_wal::ChangeRecord;
use relstore::{Catalog, Database};

/// An answer's identity: every explanation's SQL text and score bits, in
/// rank order.
pub type Print = Vec<(String, u64)>;

pub fn print(outcome: &SearchOutcome, catalog: &Catalog) -> Print {
    outcome
        .explanations
        .iter()
        .map(|e| (e.sql(catalog), e.score.to_bits()))
        .collect()
}

/// The reference pipeline's answer on an uncached engine.
pub fn reference_print(engine: &Quest<FullAccessWrapper>, raw: &str) -> Result<Print, String> {
    let query = KeywordQuery::parse(raw).map_err(|e| e.to_string())?;
    let outcome = engine
        .search_query_reference(&query)
        .map_err(|e| e.to_string())?;
    Ok(print(&outcome, engine.wrapper().database().catalog()))
}

/// Tally of gate checks; any mismatch fails the run.
#[derive(Debug, Default)]
pub struct Gate {
    pub checked: u64,
    pub mismatched: u64,
    pub first_mismatch: Option<String>,
}

impl Gate {
    /// Record one comparison; returns whether it matched.
    pub fn check(&mut self, what: &str, served: &Print, expected: &Print) -> bool {
        self.checked += 1;
        let ok = served == expected;
        if !ok {
            self.mismatched += 1;
            self.first_mismatch.get_or_insert_with(|| {
                format!("{what}: served {served:?}, reference {expected:?}")
            });
        }
        ok
    }

    /// Record a check that could not be made (the reference itself failed).
    pub fn fail(&mut self, what: &str) {
        self.checked += 1;
        self.mismatched += 1;
        self.first_mismatch.get_or_insert_with(|| what.to_string());
    }
}

/// Cold engines over the pristine data plus the first `n` committed
/// records, for any `n`: the reference twin of a replica or gateway that
/// has applied through record `n`. Engines are built on demand from a
/// cursor database that only moves forward, so requests must come in
/// ascending order of their lowest candidate `n` (see [`ColdStates::prune`]).
pub struct ColdStates {
    cursor: Database,
    applied: usize,
    records: Vec<ChangeRecord>,
    config: QuestConfig,
    built: BTreeMap<usize, Quest<FullAccessWrapper>>,
}

impl ColdStates {
    pub fn new(pristine: Database, config: QuestConfig) -> ColdStates {
        ColdStates {
            cursor: pristine,
            applied: 0,
            records: Vec::new(),
            config,
            built: BTreeMap::new(),
        }
    }

    /// Append committed records in log order.
    pub fn extend(&mut self, records: &[ChangeRecord]) {
        self.records.extend_from_slice(records);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Drop engines below `n`; later requests never ask for them.
    pub fn prune(&mut self, n: usize) {
        self.built = self.built.split_off(&n);
    }

    /// The cold engine after the first `n` records.
    pub fn engine_at(&mut self, n: usize) -> &Quest<FullAccessWrapper> {
        if !self.built.contains_key(&n) {
            assert!(
                n >= self.applied && n <= self.records.len(),
                "cold state {n} requested behind the cursor ({}) or past the log ({})",
                self.applied,
                self.records.len()
            );
            let records = &self.records[self.applied..n];
            self.cursor.with_stats_deferred(|db| {
                for r in records {
                    // Rejections are part of the history and reproduce
                    // deterministically; the benchmark's batches have none.
                    let _ = r.apply(db);
                }
            });
            self.applied = n;
            let engine = Quest::new(
                FullAccessWrapper::new(self.cursor.clone()),
                self.config.clone(),
            )
            .expect("cold engine builds over committed data");
            self.built.insert(n, engine);
        }
        &self.built[&n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_score_bit_is_a_mismatch() {
        let served: Print = vec![
            ("SELECT * FROM movie".into(), 0.75f64.to_bits()),
            ("SELECT * FROM person".into(), 0.25f64.to_bits()),
        ];
        let mut flipped = served.clone();
        flipped[1].1 ^= 1;
        let mut gate = Gate::default();
        assert!(gate.check("same", &served, &served.clone()));
        assert!(!gate.check("flipped", &flipped, &served));
        assert_eq!((gate.checked, gate.mismatched), (2, 1));
        assert!(gate.first_mismatch.unwrap().starts_with("flipped"));
    }

    #[test]
    fn a_served_answer_with_a_flipped_bit_fails_against_the_reference() {
        let db = quest_data::imdb::generate(&quest_data::imdb::ImdbScale {
            movies: 50,
            seed: 3,
        })
        .expect("tiny imdb generates");
        let engine =
            Quest::new(FullAccessWrapper::new(db), QuestConfig::default()).expect("engine builds");
        let expected = reference_print(&engine, "casablanca").expect("reference answers");
        let served = engine.search("casablanca").expect("search answers");
        let mut tampered = served.clone();
        tampered.explanations[0].score = f64::from_bits(served.explanations[0].score.to_bits() ^ 1);
        let catalog = engine.wrapper().database().catalog();
        let mut gate = Gate::default();
        assert!(gate.check("served", &print(&served, catalog), &expected));
        assert!(!gate.check("tampered", &print(&tampered, catalog), &expected));
        assert_eq!(gate.mismatched, 1);
    }
}
