//! The correctness gate: the expected output of every operation, and
//! the tally of operations attempted and failed.

use std::collections::BTreeMap;

use mcl_bench::json::Json;

/// Where the expected outputs live, relative to the repository root.
pub const GOLDEN_PATH: &str = "benchmark/golden.json";

/// 64-bit FNV-1a.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A simulated cell's outcome: cycles, retired instructions, and
/// fast-forwarded cycles.
pub type CellOutcome = [u64; 3];

/// Expected outputs: the FNV-64 of each `repro` command's stdout, and
/// the outcome of each in-process cell.
#[derive(Debug)]
pub struct Golden {
    stdout: BTreeMap<String, u64>,
    cells: BTreeMap<String, CellOutcome>,
}

impl Golden {
    pub fn load() -> Result<Golden, String> {
        let text = std::fs::read_to_string(GOLDEN_PATH)
            .map_err(|e| format!("reading {GOLDEN_PATH}: {e}"))?;
        Golden::parse(&text).map_err(|e| format!("{GOLDEN_PATH}: {e}"))
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = Json::parse(text)?;
        let object = |key: &str| match doc.get(key) {
            Some(Json::Object(fields)) => Ok(fields),
            _ => Err(format!("`{key}` is not an object")),
        };
        let mut stdout = BTreeMap::new();
        for (command, hash) in object("stdout_fnv64")? {
            let hash = hash
                .as_str()
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("stdout_fnv64.{command} is not a hex string"))?;
            stdout.insert(command.clone(), hash);
        }
        let mut cells = BTreeMap::new();
        for (cell, outcome) in object("cells")? {
            let values: Vec<u64> = outcome
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_u64)
                .collect();
            let outcome: CellOutcome = values
                .try_into()
                .map_err(|_| format!("cells.{cell} is not [cycles, retired, skipped]"))?;
            cells.insert(cell.clone(), outcome);
        }
        Ok(Golden { stdout, cells })
    }

    /// Checks one `repro` command's stdout.
    pub fn check_stdout(&self, command: &str, stdout: &[u8]) -> Result<(), String> {
        let observed = fnv64(stdout);
        match self.stdout.get(command) {
            Some(&expected) if expected == observed => Ok(()),
            expected => Err(format!(
                "stdout_fnv64.{command}: expected {}, observed \"{observed:016x}\"",
                expected.map_or_else(|| "no entry".to_owned(), |h| format!("\"{h:016x}\""))
            )),
        }
    }

    /// Checks one simulated cell.
    pub fn check_cell(&self, cell: &str, observed: CellOutcome) -> Result<(), String> {
        match self.cells.get(cell) {
            Some(&expected) if expected == observed => Ok(()),
            expected => Err(format!(
                "cells.{cell}: expected {}, observed {observed:?}",
                expected.map_or_else(|| "no entry".to_owned(), |e| format!("{e:?}"))
            )),
        }
    }
}

/// Operations attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first failures, for the results file; every failure is also
    /// printed to stderr with its observed value.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            eprintln!("benchmark: operation failed: {why}");
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"stdout_fnv64": {"echo": "af63dc4c8601ec8c"},
                          "cells": {"ora/dual-local": [10, 7, 2]}}"#;

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn matching_outputs_pass() {
        let golden = Golden::parse(DOC).unwrap();
        let mut tally = Tally::default();
        tally.record(golden.check_cell("ora/dual-local", [10, 7, 2]));
        tally.record(golden.check_stdout("echo", b"a"));
        assert_eq!((tally.attempted, tally.failed), (2, 0));
    }

    #[test]
    fn a_mismatch_counts_as_a_failure_and_shows_the_observed_value() {
        let golden = Golden::parse(DOC).unwrap();
        let mut tally = Tally::default();
        tally.record(golden.check_cell("ora/dual-local", [11, 7, 2]));
        tally.record(golden.check_stdout("echo", b"b"));
        tally.record(golden.check_cell("gcc1/single-native", [1, 1, 0]));
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        assert!(
            tally.failures[0].contains("observed [11, 7, 2]"),
            "{}",
            tally.failures[0]
        );
        assert!(tally.failures[1].contains(&format!("{:016x}", fnv64(b"b"))));
        assert!(tally.failures[2].contains("no entry"));
    }

    #[test]
    fn malformed_goldens_are_rejected() {
        assert!(Golden::parse(r#"{"stdout_fnv64": {}, "cells": {"x": [1, 2]}}"#).is_err());
        assert!(Golden::parse(r#"{"stdout_fnv64": {"x": 5}, "cells": {}}"#).is_err());
        assert!(Golden::parse(r#"{"cells": {}}"#).is_err());
    }
}
