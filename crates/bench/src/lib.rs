//! Shared machinery for the benchmark harnesses that regenerate every
//! table and figure of the paper's evaluation (see DESIGN.md §5 for the
//! index).
//!
//! Each figure/table lives in `benches/` as a `harness = false` target, so
//! `cargo bench --workspace` reproduces the full evaluation. Timings are
//! not taken here: the `benchmark/` package is the one instrument, and
//! links [`paper_config`] from this crate.

pub mod alt;

use halo_core::{
    evaluate_with_arg, measure, EvalConfig, EvalResult, Halo, HaloConfig, MeasureConfig,
    Measurement, Optimised,
};
use halo_graph::{Granularity, GroupingParams, ReusePolicyChoice};
use halo_hds::HdsConfig;
use halo_mem::{GroupAllocConfig, HaloGroupAllocator, SizeClassAllocator};
use halo_profile::ProfileConfig;
use halo_vm::EngineLimits;
use halo_workloads::Workload;

/// Engine limits generous enough for every ref-scale run.
pub fn bench_limits() -> EngineLimits {
    EngineLimits { max_instructions: 2_000_000_000, max_call_depth: 256 }
}

/// The per-workload configuration used throughout the evaluation,
/// reproducing §5.1 plus the artefact appendix's per-benchmark flags
/// (§A.8): omnetpp runs with `--chunk-size 131072 --max-spare-chunks 0`,
/// xalanc with `--max-spare-chunks 0`, and roms with `--max-groups 4`.
/// omnetpp and xalanc "have group chunks always reused due to a limitation
/// of [the] current implementation", which `max_spare_chunks = usize::MAX`
/// models. Every other knob is its crate's default, which is already the
/// §5.1 value, except the edge threshold `min_weight` of 32.
///
/// On top of the artefact flags, roms and omnetpp run under
/// `--granularity auto` (our §6 extension): roms's regularities live at
/// page granularity (the fallback finds them), and omnetpp's grouping
/// splits each event wave across per-module chunks — a measured *train*
/// regression at both granularities, so auto declines to group. A
/// chunk-size × spare-chunk sweep (`ablation_chunk_policy` run on
/// omnetpp) leaves the regression untouched at every setting, which is
/// why the fix is the policy, not the chunk knobs.
///
/// The fragmentation-extreme benchmarks of Table 1 (leela, health — plus
/// roms, §6's other named offender) additionally run under
/// `--reuse-policy auto`: the `ablation_reuse_policy` winner (mimalloc-
/// style sharded free lists) promoted as a per-group, train-validated
/// default rather than a blanket switch, so groups whose bump contiguity
/// is winning misses keep bump.
pub fn paper_config(workload: &Workload) -> EvalConfig {
    let mut grouping = GroupingParams { min_weight: 32, ..GroupingParams::default() };
    let mut alloc = GroupAllocConfig::default();
    let mut granularity = Granularity::Object;
    let mut reuse = ReusePolicyChoice::Bump;
    match workload.name {
        "omnetpp" => {
            alloc = alloc.with_chunk_size(131_072).expect("128 KiB chunks are valid");
            alloc.max_spare_chunks = usize::MAX;
            granularity = Granularity::Auto;
        }
        "xalanc" => {
            alloc.max_spare_chunks = usize::MAX;
        }
        "roms" => {
            grouping.max_groups = Some(4);
            granularity = Granularity::Auto;
            reuse = ReusePolicyChoice::Auto;
        }
        "leela" | "health" => {
            reuse = ReusePolicyChoice::Auto;
        }
        _ => {}
    }
    EvalConfig {
        halo: HaloConfig {
            profile: ProfileConfig { granularity, ..ProfileConfig::default() },
            grouping,
            alloc,
            limits: bench_limits(),
            reuse,
            ..HaloConfig::default()
        },
        hds: HdsConfig::default(),
        measure: MeasureConfig {
            limits: bench_limits(),
            seed: workload.reference.seed,
            entry_arg: workload.reference.arg,
            ..MeasureConfig::default()
        },
        extras: Vec::new(),
        ..EvalConfig::default()
    }
}

/// Evaluate one workload with the paper configuration (plus the named
/// optional registry backends), following the §5.1 methodology.
pub fn run_workload(workload: &Workload, extras: &[&'static str]) -> EvalResult {
    let mut config = paper_config(workload);
    config.extras = extras.to_vec();
    evaluate_with_arg(
        &workload.program,
        workload.name,
        workload.train.seed,
        workload.train.arg,
        &config,
    )
    .unwrap_or_else(|e| panic!("workload {} failed: {e}", workload.name))
}

/// Run the HALO pipeline on `workload`'s train input under `config`. The
/// [`Halo`] comes back configured for `config.measure`'s geometry
/// ([`Halo::for_measurement`]), so the `auto` policies validated on the
/// caches the caller is about to measure on.
pub fn optimise(workload: &Workload, config: &EvalConfig) -> (Halo, Optimised) {
    let halo = Halo::for_measurement(&config.halo, &config.measure);
    let optimised = halo
        .optimise_with_arg(&workload.program, workload.train.seed, workload.train.arg)
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", workload.name));
    (halo, optimised)
}

/// Measure `workload`'s unmodified binary under the jemalloc-style
/// baseline on `config.measure` (the ref input). It depends on nothing
/// else in `config`: a sweep over pipeline knobs measures it once.
pub fn baseline(workload: &Workload, config: &EvalConfig) -> Measurement {
    measure(&workload.program, &mut SizeClassAllocator::new(), &config.measure)
        .unwrap_or_else(|e| panic!("{}: baseline run failed: {e}", workload.name))
}

/// [`optimise`], then measure the rewritten binary under the synthesised
/// allocator on the ref input — the light-weight path of the sweeps
/// (Fig. 12 and the ablations), which need neither the comparison
/// technique nor a baseline per row. The allocator comes back as measured,
/// for its `report()`.
pub fn halo_run(
    workload: &Workload,
    config: &EvalConfig,
) -> (Optimised, HaloGroupAllocator, Measurement) {
    let (halo, optimised) = optimise(workload, config);
    let mut alloc = halo.make_allocator(&optimised);
    let measured = measure(&optimised.program, &mut alloc, &config.measure)
        .unwrap_or_else(|e| panic!("{}: HALO run failed: {e}", workload.name));
    (optimised, alloc, measured)
}

/// Measure the baseline against one registry backend on the unmodified
/// binary (Fig. 15 and the §5.1 allocator comparison) — the light-weight
/// path that skips the pipeline, so only backends that measure the
/// original binary without pipeline artefacts qualify.
///
/// # Panics
///
/// Panics if `id` is not a registry backend, or names one that needs the
/// rewritten binary or the pipeline artefacts.
pub fn run_backend_pair(workload: &Workload, id: &str) -> (Measurement, Measurement) {
    let spec = halo_core::backend_spec(id)
        .unwrap_or_else(|| panic!("unknown backend '{id}' (see halo_core::BACKENDS)"));
    let halo_core::BackendMake::Plain(make) = spec.make else {
        panic!("backend '{id}' needs the full evaluate_with_arg() path");
    };
    let config = paper_config(workload);
    let m = measure(&workload.program, &mut *make(&config), &config.measure)
        .unwrap_or_else(|e| panic!("{}: comparison run failed: {e}", workload.name));
    (baseline(workload, &config), m)
}

/// Format a fraction as a signed percentage with one decimal.
pub fn pct(fraction: f64) -> String {
    format!("{:+.1}%", fraction * 100.0)
}

/// Format a byte count like the paper's Table 1 (KiB/MiB with two
/// decimals).
pub fn human_bytes(bytes: u64) -> String {
    if bytes >= 1 << 20 {
        format!("{:.2}MiB", bytes as f64 / (1 << 20) as f64)
    } else {
        format!("{:.2}KiB", bytes as f64 / 1024.0)
    }
}

/// Print a header for a figure/table harness.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.2815), "+28.1%");
        assert_eq!(pct(-0.03), "-3.0%");
        assert_eq!(human_bytes(31980), "31.23KiB");
        assert_eq!(human_bytes(2 << 20), "2.00MiB");
    }

    #[test]
    fn per_benchmark_flags_follow_the_artefact() {
        let config = |name| paper_config(&halo_workloads::by_name(name).unwrap());
        assert_eq!(config("omnetpp").halo.alloc.chunk_size, 131_072);
        assert_eq!(config("roms").halo.grouping.max_groups, Some(4));
        assert_eq!(config("health").halo.alloc.chunk_size, 1 << 20);
    }
}
