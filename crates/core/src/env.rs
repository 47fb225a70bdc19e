//! One policy for environment-variable overrides, used by every tunable
//! in the workspace (`HALO_THREADS`, `HALO_PROPTEST_CASES`).
//!
//! The rule: a *valid* value overrides, an *unset* variable is silently
//! ignored, and an *invalid* value warns loudly on stderr — once per
//! process per variable — and falls back. Before this helper each
//! consumer rolled its own: `HALO_THREADS` warned and
//! `HALO_PROPTEST_CASES` panicked — so the same mistake (`=max`, `=0`)
//! produced different behaviours.

use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// The warning line an invalid override prints: `parse`'s error message
/// (which names the variable and the value) followed by what happens
/// instead. Split out so tests can pin the text without racing on the
/// process environment.
pub fn env_warning(reason: &str, fallback_note: &str) -> String {
    format!("warning: {reason}; {fallback_note}")
}

/// Whether `var` has not warned before in this process (and mark it).
fn first_warning_for(var: &str) -> bool {
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    WARNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .map(|mut seen| seen.insert(var.to_string()))
        .unwrap_or(true)
}

/// Read and parse the environment variable `var`.
///
/// * Unset (or non-UTF-8): `None`, silently — no override requested.
/// * `parse` succeeds: `Some(value)` — the override applies.
/// * `parse` fails: `None`, after printing
///   [`env_warning`]`(reason, fallback_note)` on stderr (once per process
///   per variable) — the caller applies its default, but the typo is not
///   swallowed.
///
/// `parse` errors should name the variable and the offending value, e.g.
/// `"HALO_THREADS=max is invalid: expected a positive integer"`.
pub fn parse_env_or_warn<T>(
    var: &str,
    fallback_note: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    let value = std::env::var(var).ok()?;
    match parse(&value) {
        Ok(parsed) => Some(parsed),
        Err(reason) => {
            if first_warning_for(var) {
                eprintln!("{}", env_warning(&reason, fallback_note));
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warning_text_is_reason_then_fallback() {
        assert_eq!(
            env_warning(
                "HALO_THREADS=max is invalid: expected a positive integer",
                "using hardware parallelism"
            ),
            "warning: HALO_THREADS=max is invalid: expected a positive integer; \
             using hardware parallelism"
        );
    }

    #[test]
    fn unset_variables_are_silently_ignored() {
        // A name no test or harness sets; parse must never be consulted.
        let parsed =
            parse_env_or_warn("HALO_TEST_UNSET_NEVER_EXPORTED", "using the default", |_| {
                Err::<u32, _>("parse must not run for an unset variable".into())
            });
        assert_eq!(parsed, None);
    }

    #[test]
    fn set_variables_parse_or_fall_back() {
        // Unique names so parallel tests cannot collide; `set_var` is safe
        // in the 2021 edition and these names exist only here.
        std::env::set_var("HALO_TEST_ENV_VALID", "12");
        assert_eq!(
            parse_env_or_warn("HALO_TEST_ENV_VALID", "using the default", |v| v
                .trim()
                .parse::<u32>()
                .map_err(|_| format!("HALO_TEST_ENV_VALID={v} is invalid"))),
            Some(12)
        );
        std::env::set_var("HALO_TEST_ENV_INVALID", "max");
        let parsed = parse_env_or_warn("HALO_TEST_ENV_INVALID", "using the default", |v| {
            v.trim().parse::<u32>().map_err(|_| format!("HALO_TEST_ENV_INVALID={v} is invalid"))
        });
        assert_eq!(parsed, None, "invalid values fall back instead of overriding");
        // Warned once; a second failure for the same variable stays quiet
        // but still falls back.
        let again = parse_env_or_warn("HALO_TEST_ENV_INVALID", "using the default", |v| {
            v.trim().parse::<u32>().map_err(|_| format!("HALO_TEST_ENV_INVALID={v} is invalid"))
        });
        assert_eq!(again, None);
    }
}
