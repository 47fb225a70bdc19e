//! `expected/baseline.json`: the reference machine model's pinned counts.
//!
//! For each pinned `--seed` and each of the 11 programs the file records
//! what the *unmodified* binary does under the jemalloc-style baseline
//! allocator on the ref input: L1D misses, data accesses, instructions.
//! Those numbers depend on the VM and the cache model only — never on the
//! HALO pipeline — so a pipeline change cannot move them and a simulator
//! "speed-up" that does move them is caught. The file was pinned at the
//! seed commit (README: "Re-pinning"); it is compiled into the binary so a
//! run does not depend on the working directory.

use crate::json::Json;

/// The pinned counts of one program on one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineCounts {
    pub l1d_misses: u64,
    pub accesses: u64,
    pub instructions: u64,
}

/// The parsed expectation file.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    seeds: Vec<(u64, Vec<(String, BaselineCounts)>)>,
}

const COMMITTED: &str = include_str!("../expected/baseline.json");

impl Expected {
    /// The file compiled into this binary, parsed once per process; `Err`
    /// says what is wrong with the committed file.
    pub fn committed() -> &'static Result<Expected, String> {
        static PARSED: std::sync::OnceLock<Result<Expected, String>> = std::sync::OnceLock::new();
        PARSED.get_or_init(|| Expected::parse(COMMITTED))
    }

    /// # Errors
    ///
    /// Returns a message naming the malformed part.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Json::parse(text).map_err(|e| format!("expected/baseline.json: {e}"))?;
        let seeds = doc
            .get("seeds")
            .and_then(Json::as_obj)
            .ok_or("expected/baseline.json: missing object \"seeds\"")?;
        let mut out = Vec::new();
        for (seed, programs) in seeds {
            let seed: u64 = seed.parse().map_err(|_| {
                format!("expected/baseline.json: seed key '{seed}' is not a number")
            })?;
            let programs = programs
                .as_obj()
                .ok_or(format!("expected/baseline.json: seed {seed} is not an object"))?;
            let mut rows = Vec::new();
            for (program, counts) in programs {
                let field = |name: &str| {
                    counts.get(name).and_then(Json::as_u64).ok_or(format!(
                        "expected/baseline.json: seed {seed}, program '{program}': \
                         missing count \"{name}\""
                    ))
                };
                rows.push((
                    program.clone(),
                    BaselineCounts {
                        l1d_misses: field("l1d_misses")?,
                        accesses: field("accesses")?,
                        instructions: field("instructions")?,
                    },
                ));
            }
            out.push((seed, rows));
        }
        Ok(Expected { seeds: out })
    }

    /// Whether `seed` is pinned at all. Unpinned seeds run with the
    /// consistency checks only.
    #[cfg(test)]
    pub fn has_seed(&self, seed: u64) -> bool {
        self.seeds.iter().any(|(s, _)| *s == seed)
    }

    /// The pinned counts of `program` on `seed`: `Ok(None)` when the seed
    /// is not pinned.
    ///
    /// # Errors
    ///
    /// A pinned seed that lacks the program is a broken file, not a
    /// skipped check.
    pub fn lookup(&self, seed: u64, program: &str) -> Result<Option<BaselineCounts>, String> {
        let Some((_, rows)) = self.seeds.iter().find(|(s, _)| *s == seed) else {
            return Ok(None);
        };
        rows.iter().find(|(p, _)| p == program).map(|(_, c)| Some(*c)).ok_or_else(|| {
            format!(
                "expected/baseline.json pins seed {seed} but has no entry for program \
                 '{program}'; re-pin with `benchmark/run.sh --pin-baseline` (README: Re-pinning)"
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"seeds": {"0": {
        "health": {"l1d_misses": 10, "accesses": 100, "instructions": 1000}}}}"#;

    #[test]
    fn parses_and_looks_up() {
        let e = Expected::parse(SAMPLE).expect("parses");
        assert!(e.has_seed(0) && !e.has_seed(1));
        assert_eq!(
            e.lookup(0, "health"),
            Ok(Some(BaselineCounts { l1d_misses: 10, accesses: 100, instructions: 1000 }))
        );
        assert_eq!(e.lookup(9, "health"), Ok(None), "unpinned seed skips the check");
    }

    #[test]
    fn a_missing_program_is_a_clear_error() {
        let e = Expected::parse(SAMPLE).expect("parses");
        let err = e.lookup(0, "roms").expect_err("roms is not in the sample");
        assert!(
            err.contains("seed 0") && err.contains("'roms'") && err.contains("re-pin"),
            "{err}"
        );
    }

    #[test]
    fn malformed_files_say_what_is_wrong() {
        assert!(Expected::parse("{}").unwrap_err().contains("\"seeds\""));
        let err = Expected::parse(r#"{"seeds": {"0": {"ft": {"accesses": 1}}}}"#).unwrap_err();
        assert!(err.contains("'ft'") && err.contains("l1d_misses"), "{err}");
        assert!(Expected::parse(r#"{"seeds": {"x": {}}}"#).unwrap_err().contains("not a number"));
    }

    #[test]
    fn the_committed_file_covers_every_program_on_every_pinned_seed() {
        let e = Expected::committed().as_ref().expect("committed file parses");
        assert!(e.has_seed(0), "seed 0 (the default) is pinned");
        for (seed, _) in &e.seeds {
            for p in crate::metrics::PROGRAMS {
                assert!(matches!(e.lookup(*seed, p), Ok(Some(_))), "seed {seed} program {p}");
            }
        }
    }
}
