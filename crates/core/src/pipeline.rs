//! Pipeline orchestration: Fig. 4 end to end, plus the granularity policy
//! (§6's page-granularity fallback, which the paper sketches but never
//! builds).

use crate::measure::{measure, MeasureConfig, Measurement};
use halo_graph::{group, AffinityGraph, Granularity, Group, GroupingParams, ReusePolicyChoice};
use halo_ident::{contexts_from_profile, identify, Identification};
use halo_mem::{
    GroupAllocConfig, HaloGroupAllocator, ReusePolicy, ShardedHaloAllocator, SizeClassAllocator,
};
use halo_profile::{Profile, ProfileConfig, Profiler};
use halo_rewrite::{instrument, RewriteReport};
use halo_vm::{Engine, EngineLimits, Monitor, Program, VmError, PAGE_SIZE};

/// Every tunable of the optimisation pipeline, grouped by stage.
#[derive(Debug, Clone, Copy)]
pub struct HaloConfig {
    /// Profiling-stage parameters (affinity distance, granularity, etc.).
    /// `profile.granularity` selects the grouping granularity policy:
    /// object (the paper's mode), page (§6's fallback), or auto.
    pub profile: ProfileConfig,
    /// Grouping-stage parameters (merge tolerance etc.).
    pub grouping: GroupingParams,
    /// Synthesised-allocator parameters (chunk size etc.). Under
    /// page-granularity grouping the `max_grouped_size` cap is lifted to
    /// the chunk size — grouping whole large arrays is the fallback's
    /// point.
    pub alloc: GroupAllocConfig,
    /// Limits for the profiling run.
    pub limits: EngineLimits,
    /// Which in-chunk reuse policy each group's layout starts from. `Bump`
    /// and `Sharded` give every group the same one; `Auto` runs the
    /// per-group train-input validator: groups whose own chunks fragment
    /// beyond `REUSE_MIN_FRAG` are trialled with mimalloc-style sharded
    /// free lists (and smaller chunks), and a flip is kept only when it cuts
    /// the measured fragmentation without costing more than
    /// `REUSE_MISS_TOLERANCE` of the train-input L1D misses (both bars are
    /// constants of `Halo::resolve_reuse`).
    pub reuse: ReusePolicyChoice,
    /// Memory-subsystem geometry the `auto` policy validates against.
    /// Must match the geometry the final measurement uses, or auto's
    /// accept/decline decision is made on the wrong cache;
    /// [`crate::evaluate_with_arg`] copies it from its `MeasureConfig`.
    pub hierarchy: halo_cache::HierarchyConfig,
    /// Cycle model for the `auto` validation runs (kept alongside
    /// `hierarchy` for the same reason; the decision itself is on misses).
    pub timing: halo_cache::TimingModel,
}

impl Default for HaloConfig {
    fn default() -> Self {
        HaloConfig {
            profile: ProfileConfig::default(),
            grouping: GroupingParams::default(),
            alloc: GroupAllocConfig::default(),
            limits: EngineLimits::default(),
            reuse: ReusePolicyChoice::Bump,
            hierarchy: halo_cache::HierarchyConfig::default(),
            timing: halo_cache::TimingModel::default(),
        }
    }
}

/// Why the pipeline failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The profiling (or any later verification) execution trapped.
    Vm(VmError),
    /// A [`serve`](crate::serve()) script or configuration broke a rule,
    /// found before any work ran; the text is the rule.
    Rejected(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Vm(e) => write!(f, "execution failed: {e}"),
            PipelineError::Rejected(rule) => f.write_str(rule),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<VmError> for PipelineError {
    fn from(e: VmError) -> Self {
        PipelineError::Vm(e)
    }
}

/// Everything the pipeline produces for one target binary.
#[derive(Debug)]
pub struct Optimised {
    /// The rewritten (instrumented) binary.
    pub program: Program,
    /// The profiling result it was derived from.
    pub profile: Profile,
    /// The allocation-context groups.
    pub groups: Vec<Group>,
    /// Each group's layout, indexed by group id: the per-group
    /// configuration (chunk size, spare budget, reuse policy) every
    /// allocator synthesised for this result runs.
    pub group_configs: Vec<GroupAllocConfig>,
    /// The granularity the emitted groups were formed at (never
    /// [`Granularity::Auto`]: the policy resolves to a concrete mode).
    pub granularity: Granularity,
    /// Whether the `auto` policy declined to group: neither granularity's
    /// grouping beat `AUTO_MIN_GAIN` on the train input, so the binary
    /// passes through unmodified (`groups` is empty).
    pub auto_declined: bool,
    /// Selectors, monitored sites, and the runtime table.
    pub ident: Identification,
    /// Rewriting statistics.
    pub rewrite: RewriteReport,
}

/// The seed of every train-input execution in the process, whatever thread
/// ran it, so a test can count its own by a seed no other test uses.
#[cfg(test)]
static TRAIN_RUNS: std::sync::Mutex<Vec<u64>> = std::sync::Mutex::new(Vec::new());

/// Train-input executions so far at `seed`.
#[cfg(test)]
pub(crate) fn train_runs(seed: u64) -> usize {
    let log = TRAIN_RUNS.lock().expect("the log is only pushed to");
    log.iter().filter(|&&run| run == seed).count()
}

/// The HALO optimiser: configure once, apply to binaries.
#[derive(Debug, Clone, Default)]
pub struct Halo {
    config: HaloConfig,
}

impl Halo {
    /// Create a pipeline with the given configuration.
    pub fn new(config: HaloConfig) -> Self {
        Halo { config }
    }

    /// The pipeline whose results `measure` will measure: `config` with
    /// the measurement's memory-subsystem geometry. The auto policies
    /// (granularity and per-group reuse) validate candidates by
    /// measurement, so they must see the hierarchy and timing the final
    /// measurements use.
    pub fn for_measurement(config: &HaloConfig, measure: &MeasureConfig) -> Self {
        Halo {
            config: HaloConfig { hierarchy: measure.hierarchy, timing: measure.timing, ..*config },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HaloConfig {
        &self.config
    }

    /// Profile `program` (one run with `train_seed`, passing `train_arg` —
    /// the *train* input size — to the entry function) and return the raw
    /// profile — the first pipeline stage alone.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Vm`] if the profiling run traps.
    pub fn profile_with_arg(
        &self,
        program: &Program,
        train_seed: u64,
        train_arg: i64,
    ) -> Result<Profile, PipelineError> {
        let mut profiler = Profiler::new(program, self.config.profile);
        self.run_train(program, train_seed, train_arg, &mut profiler)?;
        Ok(profiler.finish())
    }

    /// Execute `program`'s train input once (`train_seed`, `train_arg`)
    /// under `monitor`: the one way the pipeline runs a train input for
    /// its events. Profiling observes the program under the default
    /// allocator, as the paper's Pin tool does.
    pub(crate) fn run_train(
        &self,
        program: &Program,
        train_seed: u64,
        train_arg: i64,
        monitor: &mut impl Monitor,
    ) -> Result<(), VmError> {
        #[cfg(test)]
        TRAIN_RUNS.lock().expect("a seed push cannot panic").push(train_seed);
        Engine::new(program)
            .with_seed(train_seed)
            .with_entry_arg(train_arg)
            .with_limits(self.config.limits)
            .run(&mut SizeClassAllocator::new(), monitor)?;
        Ok(())
    }

    /// Run the whole pipeline — profile → group → identify → rewrite — on
    /// one train input (`train_arg` is the entry function's scale
    /// argument for the profiling run).
    ///
    /// The configured granularity policy (`config.profile.granularity`)
    /// decides which affinity graph grouping consumes. `Auto` groups at
    /// object granularity first and checks the grouping's measured L1D
    /// miss reduction **on the train input** (profiling data only — the
    /// ref input is never consulted); if the gain is below
    /// `AUTO_MIN_GAIN` it retries at page granularity, and if that also
    /// fails to clear the bar it declines to group at all, leaving the
    /// binary untouched (the omnetpp case, where grouping per-module
    /// contexts splits each event wave across chunks).
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Vm`] if the profiling run (or, under an
    /// `Auto` policy, a train-input validation run) traps.
    pub fn optimise_with_arg(
        &self,
        program: &Program,
        train_seed: u64,
        train_arg: i64,
    ) -> Result<Optimised, PipelineError> {
        let profile = self.profile_with_arg(program, train_seed, train_arg)?;
        self.optimise_profiled(program, profile, train_seed, train_arg)
    }

    /// [`optimise_with_arg`](Self::optimise_with_arg) past its profiling
    /// run: everything from `profile`, which is `program`'s profile on the
    /// train input `train_seed` / `train_arg` (the `auto` validators
    /// measure their candidates on that same input).
    pub(crate) fn optimise_profiled(
        &self,
        program: &Program,
        profile: Profile,
        train_seed: u64,
        train_arg: i64,
    ) -> Result<Optimised, PipelineError> {
        // What both `auto` validators measure candidates on: the *train*
        // input, on the geometry the final measurement uses.
        let train = MeasureConfig {
            hierarchy: self.config.hierarchy,
            timing: self.config.timing,
            limits: self.config.limits,
            seed: train_seed,
            entry_arg: train_arg,
        };
        let policy = self.config.profile.granularity;
        let (granularity, mut plan) = match policy {
            Granularity::Auto => self.resolve_auto(program, &profile, &train)?,
            g => (g, self.assemble(program, &profile, graph_at(&profile, g), g)),
        };
        if self.config.reuse == ReusePolicyChoice::Auto && !plan.groups.is_empty() {
            self.resolve_reuse(&mut plan, granularity, &train)?;
        }
        Ok(Optimised {
            auto_declined: policy == Granularity::Auto && plan.groups.is_empty(),
            program: plan.program,
            profile,
            groups: plan.groups,
            group_configs: plan.group_configs,
            granularity,
            ident: plan.ident,
            rewrite: plan.rewrite,
        })
    }

    /// The one path from a graph to a plan: group `graph` (over
    /// `profile`'s context ids), give every group the configured layout at
    /// the concrete `granularity` the graph was recorded at, and build the
    /// selector machinery plus the rewritten binary.
    /// Everything is borrowed: the `auto` validators try several graphs of
    /// one profile, and the serve loop passes its *streamed* graph.
    pub(crate) fn assemble(
        &self,
        program: &Program,
        profile: &Profile,
        graph: &AffinityGraph,
        granularity: Granularity,
    ) -> Plan {
        let groups = group(graph, &self.config.grouping);
        let layout = GroupAllocConfig {
            reuse_policy: self.config.reuse.initial_policy(),
            ..self.alloc_config(granularity)
        };
        let group_configs = vec![layout; groups.len()];
        let ident = identify(&groups, &contexts_from_profile(profile));
        let (program, rewrite) = instrument(program, &ident.site_bits);
        Plan { groups, group_configs, ident, program, rewrite }
    }

    /// One train-input trial, the step both `auto` validators take:
    /// synthesise `plan`'s allocator and measure its rewritten binary on
    /// the train input. The allocator comes back for its fragmentation
    /// reports.
    fn train_trial(
        &self,
        plan: &Plan,
        granularity: Granularity,
        train: &MeasureConfig,
    ) -> Result<(Measurement, HaloGroupAllocator), PipelineError> {
        let mut alloc = HaloGroupAllocator::with_group_configs(
            self.alloc_config(granularity),
            plan.ident.table.clone(),
            plan.group_configs.clone(),
        );
        let measured = measure(&plan.program, &mut alloc, train)?;
        Ok((measured, alloc))
    }

    /// The `auto` granularity policy: object granularity, then page, then
    /// decline — each candidate validated by measuring its grouping
    /// against the plain baseline on the *train* input.
    fn resolve_auto(
        &self,
        program: &Program,
        profile: &Profile,
        train: &MeasureConfig,
    ) -> Result<(Granularity, Plan), PipelineError> {
        /// A grouping is kept only if its measured L1D miss reduction on
        /// the *train* input exceeds this fraction; otherwise the policy
        /// falls back (object → page → decline to group). The ref input is
        /// never consulted, preserving the §5.1 train/ref separation.
        const AUTO_MIN_GAIN: f64 = 0.01;
        let baseline = measure(program, &mut SizeClassAllocator::new(), train)?;
        for granularity in [Granularity::Object, Granularity::Page] {
            let candidate =
                self.assemble(program, profile, graph_at(profile, granularity), granularity);
            if candidate.groups.is_empty() {
                continue;
            }
            let (measured, _) = self.train_trial(&candidate, granularity, train)?;
            if measured.miss_reduction_vs(&baseline) > AUTO_MIN_GAIN {
                return Ok((granularity, candidate));
            }
        }
        // Neither granularity demonstrated a train-input win: decline. A
        // decline is the plan of a graph with nothing in it — no groups,
        // no monitored sites, the binary untouched.
        let declined = self.assemble(program, profile, &AffinityGraph::new(), Granularity::Object);
        Ok((Granularity::Object, declined))
    }

    /// The per-group `auto` reuse policy: starting from the all-bump table
    /// [`Halo::assemble`] built, measure the optimised binary on the
    /// *train* input, rank groups by their own fragmentation, and trial
    /// each offender with mimalloc-style sharded free lists — at the
    /// group's current chunk size and at progressively smaller chunks
    /// (small chunks let survivor-pinned memory purge back to the OS). A
    /// candidate layout is kept only if the measured whole-allocator
    /// fragmentation fraction strictly improves while train-input L1D
    /// misses stay within `REUSE_MISS_TOLERANCE` of the all-bump run —
    /// groups whose contiguity is winning misses keep bump. The ref input
    /// is never consulted (§5.1 train/ref separation).
    fn resolve_reuse(
        &self,
        plan: &mut Plan,
        granularity: Granularity,
        train: &MeasureConfig,
    ) -> Result<(), PipelineError> {
        /// Per-group fragmentation fraction (of that group's own peak
        /// resident chunks) above which the group is a flip candidate.
        const REUSE_MIN_FRAG: f64 = 0.10;
        /// Miss budget for a flip: a candidate layout is rejected if it
        /// raises train-input L1D misses by more than this fraction over
        /// the all-bump table — contiguity keeps the group at bump.
        const REUSE_MISS_TOLERANCE: f64 = 0.01;
        let (bump, alloc) = self.train_trial(plan, granularity, train)?;
        let group_frags = alloc.group_frag_reports();
        let mut best = (alloc.report().frag.frag_fraction(), bump.stats.l1_misses);
        let miss_cap = (bump.stats.l1_misses as f64 * (1.0 + REUSE_MISS_TOLERANCE)) as u64;

        // Fragmentation-heavy groups first (their flips move the total
        // most); groups below the threshold — or wasting less than a page —
        // are never touched.
        let mut candidates: Vec<usize> = (0..plan.groups.len())
            .filter(|&i| {
                group_frags[i].frag_fraction() >= REUSE_MIN_FRAG
                    && group_frags[i].wasted_bytes() >= PAGE_SIZE
            })
            .collect();
        candidates.sort_by_key(|&i| std::cmp::Reverse(group_frags[i].wasted_bytes()));

        for i in candidates {
            let bump = plan.group_configs[i];
            let mut accepted: Option<(GroupAllocConfig, (f64, u64))> = None;
            let mut tried: Vec<GroupAllocConfig> = Vec::new();
            for chunk_size in [bump.chunk_size, bump.chunk_size / 64, bump.chunk_size / 128] {
                let chunk_size = chunk_size.max(2 * PAGE_SIZE).min(bump.chunk_size);
                let candidate = GroupAllocConfig {
                    reuse_policy: ReusePolicy::ShardedFreeLists,
                    chunk_size,
                    ..bump
                };
                if tried.contains(&candidate) {
                    continue; // the floor collapsed two ladder rungs into one
                }
                tried.push(candidate);
                plan.group_configs[i] = candidate;
                let (measured, alloc) = self.train_trial(plan, granularity, train)?;
                let score = (alloc.report().frag.frag_fraction(), measured.stats.l1_misses);
                if measured.stats.l1_misses <= miss_cap
                    && score.0 < best.0
                    && accepted.as_ref().is_none_or(|(_, s)| score < *s)
                {
                    accepted = Some((candidate, score));
                }
            }
            match accepted {
                Some((flipped, score)) => {
                    plan.group_configs[i] = flipped;
                    best = score;
                }
                None => plan.group_configs[i] = bump,
            }
        }
        Ok(())
    }

    /// Synthesise the specialised allocator for an optimisation result
    /// (§4.4) — link this against the rewritten binary at "runtime". Each
    /// group's chunks run under its own entry of
    /// [`Optimised::group_configs`] (chunk size, spare budget, reuse
    /// policy).
    pub fn make_allocator(&self, optimised: &Optimised) -> HaloGroupAllocator {
        HaloGroupAllocator::with_group_configs(
            self.alloc_config(optimised.granularity),
            optimised.ident.table.clone(),
            optimised.group_configs.clone(),
        )
    }

    /// Synthesise the thread-safe sharded runtime for an optimisation
    /// result: `shards` complete group allocators (each running the same
    /// per-group table as [`Halo::make_allocator`]) behind thread-keyed
    /// shard selection and remote-free queues. With `shards == 1` it is
    /// the plain allocator pointer for pointer.
    pub fn make_sharded_allocator(
        &self,
        optimised: &Optimised,
        shards: usize,
    ) -> ShardedHaloAllocator {
        ShardedHaloAllocator::new(
            shards,
            self.alloc_config(optimised.granularity),
            optimised.ident.table.clone(),
            optimised.group_configs.clone(),
        )
    }

    /// The allocator-wide configuration at `granularity`. Under
    /// page-granularity grouping the `max_grouped_size` cap is lifted to
    /// the chunk size: the §6 fallback exists precisely to lay out objects
    /// the object-granularity cap excludes.
    fn alloc_config(&self, granularity: Granularity) -> GroupAllocConfig {
        let mut alloc = self.config.alloc;
        if granularity == Granularity::Page {
            alloc.max_grouped_size = alloc.max_grouped_size.max(alloc.chunk_size);
        }
        alloc
    }
}

/// What [`Halo::assemble`] builds from one graph: the groups with their
/// per-group allocator table, the selector machinery identifying them,
/// and the binary rewritten to drive it.
pub(crate) struct Plan {
    pub(crate) groups: Vec<Group>,
    pub(crate) group_configs: Vec<GroupAllocConfig>,
    pub(crate) ident: Identification,
    pub(crate) program: Program,
    pub(crate) rewrite: RewriteReport,
}

/// The graph `profile` recorded at a concrete `granularity`.
pub(crate) fn graph_at(profile: &Profile, granularity: Granularity) -> &AffinityGraph {
    match granularity {
        Granularity::Page => &profile.page_graph,
        _ => &profile.graph,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_vm::Width;

    #[allow(dead_code)] // each test module uses its own part
    mod common {
        use crate::{EvalConfig, HaloConfig};
        include!("../tests/common/fig2.rs");
    }
    use common::{fig2, fig2_halo, main_only, r};

    #[test]
    fn pipeline_groups_the_hot_pair() {
        let p = fig2(64, 64);
        let halo = Halo::new(fig2_halo());
        let opt = halo.optimise_with_arg(&p, 7, 0).expect("pipeline runs");
        assert!(!opt.groups.is_empty(), "A and B should form a group");
        // The rewritten binary grew by instrumentation.
        assert!(opt.rewrite.sites_instrumented > 0);
        assert!(opt.program.code_size() > p.code_size());
        // Monitored sites are few — "only a small handful of call sites".
        assert!(opt.ident.site_bits.len() <= 4);
    }

    #[test]
    fn synthesised_allocator_groups_at_runtime() {
        let p = fig2(64, 64);
        let halo = Halo::new(fig2_halo());
        let opt = halo.optimise_with_arg(&p, 7, 0).expect("pipeline runs");
        let mut alloc = halo.make_allocator(&opt);
        let mut monitor = halo_vm::NullMonitor;
        Engine::new(&opt.program)
            .with_seed(9)
            .run(&mut alloc, &mut monitor)
            .expect("optimised binary runs");
        let stats = alloc.report().stats.alloc;
        assert!(stats.grouped_allocs > 0, "grouped allocations happened");
        // C is ungrouped: some allocations fell back.
        assert!(stats.fallback_allocs > 0, "cold context falls back");
    }

    #[test]
    fn pipeline_is_deterministic() {
        let p = fig2(32, 32);
        let halo = Halo::new(HaloConfig::default());
        let a = halo.optimise_with_arg(&p, 3, 0).expect("runs");
        let b = halo.optimise_with_arg(&p, 3, 0).expect("runs");
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.ident.site_bits, b.ident.site_bits);
        assert_eq!(a.program.code_size(), b.program.code_size());
    }

    #[test]
    fn both_auto_validators_share_the_one_profiling_run() {
        // Object and page candidates, the all-bump trial and every reuse
        // flip are assembled from — and measured beside — one borrowed
        // profile: the validators cost train *measurements*, never a
        // second profiling run (or a copy of the first).
        let p = fig2(256, 256);
        let mut config = HaloConfig {
            reuse: ReusePolicyChoice::Auto,
            // Small enough that the hot pair's layout shows in L1D misses.
            hierarchy: halo_cache::HierarchyConfig::tiny(),
            ..fig2_halo()
        };
        config.profile.granularity = Granularity::Auto;
        // No other test trains at this seed.
        const SEED: u64 = 0x0A17_0A11;
        let opt = Halo::new(config).optimise_with_arg(&p, SEED, 0).expect("pipeline runs");
        assert_eq!(train_runs(SEED), 1);
        assert!(!opt.groups.is_empty() && !opt.auto_declined);
        assert_eq!(opt.granularity, Granularity::Object);
    }

    #[test]
    fn programs_without_groups_pass_through() {
        // A program with a single allocation and no affinity.
        let p = main_only(|m| {
            m.imm(r(0), 64);
            m.malloc(r(0), r(1));
            m.store(r(0), r(1), 0, Width::W8);
            m.ret(None);
        });
        let halo = Halo::new(HaloConfig::default());
        let opt = halo.optimise_with_arg(&p, 1, 0).expect("runs");
        assert!(opt.groups.is_empty());
        assert_eq!(opt.program.code_size(), p.code_size(), "no instrumentation");
        // The allocator degenerates to pure fallback.
        let mut alloc = halo.make_allocator(&opt);
        let mut monitor = halo_vm::NullMonitor;
        Engine::new(&opt.program).run(&mut alloc, &mut monitor).expect("runs");
        assert_eq!(alloc.report().stats.alloc.grouped_allocs, 0);
    }

    #[test]
    fn profiling_failure_is_reported() {
        let p = main_only(|m| {
            let top = m.label();
            m.bind(top);
            m.jump(top);
            m.ret(None);
        });
        let halo = Halo::new(HaloConfig {
            limits: EngineLimits { max_instructions: 1000, max_call_depth: 8 },
            ..Default::default()
        });
        assert!(matches!(
            halo.optimise_with_arg(&p, 0, 0),
            Err(PipelineError::Vm(VmError::FuelExhausted))
        ));
    }
}
