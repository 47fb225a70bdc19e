//! The interpreter: executes a [`Program`] against a pluggable allocator
//! while streaming events to a [`Monitor`].

use crate::group_state::GroupState;
use crate::ids::{CallSite, FuncId, Reg};
use crate::memory::Memory;
use crate::op::Op;
use crate::program::{Program, NUM_REGS};
use crate::rng::SplitMix64;

/// Which allocation routine an [`Monitor::on_alloc`] event came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// `malloc(size)`
    Malloc,
    /// `calloc(count, size)`
    Calloc,
    /// `realloc(ptr, size)`
    Realloc,
}

/// A fixed-capacity structure-of-arrays buffer of pending data accesses.
///
/// The engine batches `Load`/`Store` events here instead of firing
/// [`Monitor::on_access`] per instruction, and delivers the buffer through
/// [`Monitor::on_access_batch`] when it fills or when any *other* monitor
/// event (call, return, alloc, free, compute, thread switch) or an engine
/// exit is about to happen. Those flush points mean a batch never crosses
/// a non-access event: relative order between accesses and every other
/// event kind is exactly what a per-access monitor observed before
/// batching existed.
///
/// Parallel arrays rather than an array-of-structs so a consumer's hot
/// loop reads three dense streams (the cache model walks `addrs` while
/// barely touching `stores`).
#[derive(Debug, Clone)]
pub struct AccessBatch {
    addrs: [u64; AccessBatch::CAPACITY],
    widths: [u8; AccessBatch::CAPACITY],
    stores: [bool; AccessBatch::CAPACITY],
    len: usize,
}

impl AccessBatch {
    /// Accesses buffered before a forced flush. Sized so the buffer (≈2.5
    /// KiB) stays resident in the host L1 while still amortising the
    /// virtual dispatch over a useful stretch of straight-line code.
    pub const CAPACITY: usize = 256;

    /// An empty batch.
    pub fn new() -> Self {
        AccessBatch {
            addrs: [0; Self::CAPACITY],
            widths: [0; Self::CAPACITY],
            stores: [false; Self::CAPACITY],
            len: 0,
        }
    }

    /// Number of buffered accesses.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte addresses of the buffered accesses, oldest first.
    #[inline]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs[..self.len]
    }

    /// Access widths in bytes, parallel to [`Self::addrs`].
    #[inline]
    pub fn widths(&self) -> &[u8] {
        &self.widths[..self.len]
    }

    /// Store flags (`true` = write), parallel to [`Self::addrs`].
    #[inline]
    pub fn stores(&self) -> &[bool] {
        &self.stores[..self.len]
    }

    /// Append one access; returns `true` when the batch is now full and
    /// must be flushed before the next push.
    #[inline]
    fn push(&mut self, addr: u64, width: u8, store: bool) -> bool {
        let i = self.len;
        self.addrs[i] = addr;
        self.widths[i] = width;
        self.stores[i] = store;
        self.len = i + 1;
        self.len == Self::CAPACITY
    }

    /// Drop all buffered accesses.
    #[inline]
    fn clear(&mut self) {
        self.len = 0;
    }
}

impl Default for AccessBatch {
    fn default() -> Self {
        Self::new()
    }
}

/// Receives the event stream of an execution. This is the role Intel Pin
/// plays in the paper: the profiler, the cache simulator, and test oracles
/// are all monitors.
///
/// All methods default to no-ops so monitors implement only what they need.
pub trait Monitor {
    /// A call instruction at `site` is transferring control to `callee`.
    /// Fired for direct and indirect calls, before the callee's first
    /// instruction.
    fn on_call(&mut self, site: CallSite, callee: FuncId) {
        let _ = (site, callee);
    }

    /// `callee` is returning to its caller.
    fn on_return(&mut self, callee: FuncId) {
        let _ = callee;
    }

    /// An allocation routine was invoked at `site` and returned `ptr`.
    /// For `realloc`, `old_ptr` is the original pointer (0 otherwise).
    fn on_alloc(&mut self, kind: AllocKind, site: CallSite, size: u64, ptr: u64, old_ptr: u64) {
        let _ = (kind, site, size, ptr, old_ptr);
    }

    /// `free(ptr)` was invoked at `site` (`ptr != 0`).
    fn on_free(&mut self, site: CallSite, ptr: u64) {
        let _ = (site, ptr);
    }

    /// A data access of `width` bytes at `addr`; `store` distinguishes
    /// writes from reads. The access is issued by the current logical
    /// thread: the engine announces every change of thread through
    /// [`on_thread_switch`](Self::on_thread_switch) *before* the accesses
    /// that follow it, so thread-aware monitors (e.g. the coherent cache
    /// model) track the identity themselves and attribute each access to
    /// the most recently announced thread (0 until the first switch).
    fn on_access(&mut self, addr: u64, width: u8, store: bool) {
        let _ = (addr, width, store);
    }

    /// A batch of buffered data accesses, oldest first. The engine flushes
    /// the batch before every other monitor event and before exiting (see
    /// [`AccessBatch`] for the exact ordering contract), so overriding
    /// this instead of [`on_access`](Self::on_access) observes the same
    /// stream with one virtual call per up to
    /// [`AccessBatch::CAPACITY`] accesses.
    ///
    /// The default delivers each buffered access, in order, through
    /// [`on_access`](Self::on_access), so per-access monitors keep working
    /// unchanged.
    fn on_access_batch(&mut self, batch: &AccessBatch) {
        for i in 0..batch.len() {
            self.on_access(batch.addrs[i], batch.widths[i], batch.stores[i]);
        }
    }

    /// `amount` instructions of non-memory work.
    fn on_compute(&mut self, amount: u64) {
        let _ = amount;
    }

    /// The program switched to logical thread `thread` (see
    /// [`crate::Op::ThreadSwitch`]).
    fn on_thread_switch(&mut self, thread: u16) {
        let _ = thread;
    }
}

/// A monitor that ignores every event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl Monitor for NullMonitor {}

/// A tee: both monitors observe one execution, each in event order, the
/// first one first. Every event (a batch included) goes to both, so each
/// keeps whatever batch handling it has.
impl<A: Monitor, B: Monitor> Monitor for (A, B) {
    fn on_call(&mut self, site: CallSite, callee: FuncId) {
        self.0.on_call(site, callee);
        self.1.on_call(site, callee);
    }

    fn on_return(&mut self, callee: FuncId) {
        self.0.on_return(callee);
        self.1.on_return(callee);
    }

    fn on_alloc(&mut self, kind: AllocKind, site: CallSite, size: u64, ptr: u64, old_ptr: u64) {
        self.0.on_alloc(kind, site, size, ptr, old_ptr);
        self.1.on_alloc(kind, site, size, ptr, old_ptr);
    }

    fn on_free(&mut self, site: CallSite, ptr: u64) {
        self.0.on_free(site, ptr);
        self.1.on_free(site, ptr);
    }

    fn on_access(&mut self, addr: u64, width: u8, store: bool) {
        self.0.on_access(addr, width, store);
        self.1.on_access(addr, width, store);
    }

    fn on_access_batch(&mut self, batch: &AccessBatch) {
        self.0.on_access_batch(batch);
        self.1.on_access_batch(batch);
    }

    fn on_compute(&mut self, amount: u64) {
        self.0.on_compute(amount);
        self.1.on_compute(amount);
    }

    fn on_thread_switch(&mut self, thread: u16) {
        self.0.on_thread_switch(thread);
        self.1.on_thread_switch(thread);
    }
}

/// The allocator plugged into the engine — the runtime half of HALO, and
/// of every baseline it is compared against.
///
/// `site` is the static call site of the allocation instruction (the
/// "immediate call site" used by the hot-data-streams comparison) and `gs`
/// is the shared group-state vector maintained by rewritten binaries
/// (all-zero when running unrewritten programs).
pub trait VmAllocator {
    /// Allocate `size` bytes and return the address (never 0 on success).
    /// A zero-byte request is a one-byte region: it is live on its own,
    /// `live_size` answers 1 and it counts one live byte.
    fn malloc(&mut self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64;

    /// Release a pointer previously returned by this allocator. Never
    /// called with 0.
    fn free(&mut self, ptr: u64, mem: &mut Memory);

    /// The requested size of the live region starting exactly at `ptr`;
    /// `None` for a freed, interior, misaligned or never-allocated
    /// address. The one lookup [`realloc_by_move`] copies by, and the
    /// oracle every allocator answers the same way.
    fn live_size(&self, ptr: u64) -> Option<u64>;

    /// Resize an allocation, moving it if necessary, and return the new
    /// address. Called with `ptr != 0` and `size > 0`. The default is
    /// [`realloc_by_move`]; an allocator overrides it only to say what the
    /// move does not (growth in place, routing to an owner) and ends there.
    fn realloc(
        &mut self,
        ptr: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        realloc_by_move(self, ptr, size, site, gs, mem)
    }

    /// Allocate and zero `count * size` bytes. The default forwards to
    /// [`VmAllocator::malloc`] and zeroes the region.
    fn calloc(
        &mut self,
        count: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        let total = count.saturating_mul(size);
        let ptr = self.malloc(total, site, gs, mem);
        if ptr != 0 {
            mem.zero(ptr, total);
        }
        ptr
    }

    /// The executing program switched to logical thread `thread`
    /// ([`crate::Op::ThreadSwitch`]). This is the simulated stand-in for
    /// the TLS read a native allocator performs on every request:
    /// thread-aware allocators key their arena/shard selection off it.
    /// The default ignores it — single-arena allocators are oblivious to
    /// threading.
    fn thread_switched(&mut self, thread: u16) {
        let _ = thread;
    }

    /// The execution driving this allocator completed normally — the
    /// process-exit moment. Allocators with deferred work (queued remote
    /// frees, lazy purges) apply it here so post-run diagnostics (live
    /// bytes, free counters, fragmentation) reflect the whole stream.
    /// The default does nothing.
    fn run_finished(&mut self, mem: &mut Memory) {
        let _ = mem;
    }
}

/// A thread-safe allocator: the same operations as [`VmAllocator`], but
/// through a shared reference, so one allocator instance can serve
/// engines (or native driver threads) running concurrently on many OS
/// threads. Implementors synchronise internally — per-shard locks,
/// remote-free queues — rather than relying on `&mut` exclusivity.
///
/// Any `&S` where `S: SyncVmAllocator` is itself a [`VmAllocator`], so a
/// shared allocator plugs into [`Engine::run`] unchanged: each thread
/// holds its own `&S` handle (and its own [`Memory`]) while the allocator
/// state is shared.
pub trait SyncVmAllocator: Sync {
    /// Allocate `size` bytes and return the address (never 0 on success).
    fn malloc(&self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64;

    /// Release a pointer previously returned by this allocator. May be
    /// called from a different thread than the allocating one.
    fn free(&self, ptr: u64, mem: &mut Memory);

    /// The requested size of the live region starting exactly at `ptr`
    /// (see [`VmAllocator::live_size`]).
    fn live_size(&self, ptr: u64) -> Option<u64>;

    /// Resize an allocation, moving it if necessary (defaults to
    /// [`realloc_by_move`] over the shared handle).
    fn realloc(
        &self,
        ptr: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        realloc_by_move(&mut &*self, ptr, size, site, gs, mem)
    }

    /// The calling OS thread's program switched to logical thread
    /// `thread` (see [`VmAllocator::thread_switched`]).
    fn thread_switched(&self, thread: u16) {
        let _ = thread;
    }

    /// An execution driving this allocator completed normally (see
    /// [`VmAllocator::run_finished`]). With several engines sharing the
    /// allocator this fires once per engine, so implementations must
    /// tolerate concurrent and repeated calls.
    fn run_finished(&self, mem: &mut Memory) {
        let _ = mem;
    }
}

/// Shared references to thread-safe allocators run anywhere a plain
/// [`VmAllocator`] is expected — this is the bridge that lets one
/// allocator serve many engines.
impl<A: SyncVmAllocator + ?Sized> VmAllocator for &A {
    fn malloc(&mut self, size: u64, site: CallSite, gs: &GroupState, mem: &mut Memory) -> u64 {
        SyncVmAllocator::malloc(*self, size, site, gs, mem)
    }

    fn free(&mut self, ptr: u64, mem: &mut Memory) {
        SyncVmAllocator::free(*self, ptr, mem)
    }

    fn live_size(&self, ptr: u64) -> Option<u64> {
        SyncVmAllocator::live_size(*self, ptr)
    }

    fn realloc(
        &mut self,
        ptr: u64,
        size: u64,
        site: CallSite,
        gs: &GroupState,
        mem: &mut Memory,
    ) -> u64 {
        SyncVmAllocator::realloc(*self, ptr, size, site, gs, mem)
    }

    fn thread_switched(&mut self, thread: u16) {
        SyncVmAllocator::thread_switched(*self, thread)
    }

    fn run_finished(&mut self, mem: &mut Memory) {
        SyncVmAllocator::run_finished(*self, mem)
    }
}

/// `realloc` as a move — the one place a region's bytes are copied. A
/// `ptr` with no live region behind it is a plain `malloc`; when the new
/// block cannot be had the result is 0 and the old region stays live and
/// intact; otherwise the first `min(old, new)` *requested* bytes move and
/// the old region is freed. Calls only `live_size`, `malloc` and `free`,
/// never `realloc`, so an override may end here.
pub fn realloc_by_move<A: VmAllocator + ?Sized>(
    alloc: &mut A,
    ptr: u64,
    size: u64,
    site: CallSite,
    gs: &GroupState,
    mem: &mut Memory,
) -> u64 {
    let Some(old) = alloc.live_size(ptr) else {
        return alloc.malloc(size, site, gs, mem);
    };
    let newp = alloc.malloc(size, site, gs, mem);
    if newp != 0 {
        mem.copy(newp, ptr, old.min(size));
        alloc.free(ptr, mem);
    }
    newp
}

/// Execution limits protecting against runaway workloads.
#[derive(Debug, Clone, Copy)]
pub struct EngineLimits {
    /// Maximum number of retired instructions before [`VmError::FuelExhausted`].
    pub max_instructions: u64,
    /// Maximum call depth before [`VmError::CallDepthExceeded`].
    pub max_call_depth: usize,
}

impl Default for EngineLimits {
    fn default() -> Self {
        EngineLimits { max_instructions: 50_000_000_000, max_call_depth: 4096 }
    }
}

/// Why an execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// `Div`/`Rem` with a zero divisor.
    DivisionByZero {
        /// Location of the faulting instruction.
        at: CallSite,
    },
    /// An indirect call through a register that does not hold a valid
    /// function id.
    BadIndirectTarget {
        /// Location of the faulting instruction.
        at: CallSite,
        /// The register value that failed to resolve.
        value: i64,
    },
    /// The call stack exceeded [`EngineLimits::max_call_depth`].
    CallDepthExceeded,
    /// More instructions retired than [`EngineLimits::max_instructions`].
    FuelExhausted,
    /// The allocator returned 0 for an allocation request.
    ///
    /// The HALO backends' degradation ladder (DESIGN.md §12) keeps
    /// resource exhaustion away from this error: an exhausted or
    /// degraded group routes to the fallback allocator instead of
    /// returning 0, so under them this error means the *fallback* ran
    /// out of address span — a genuine OOM, not a lost optimisation.
    AllocationFailed {
        /// Location of the faulting allocation.
        at: CallSite,
        /// Requested size in bytes.
        size: u64,
    },
    /// `Rand` with a non-positive bound.
    BadRandBound {
        /// Location of the faulting instruction.
        at: CallSite,
    },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::DivisionByZero { at } => write!(f, "division by zero at {at}"),
            VmError::BadIndirectTarget { at, value } => {
                write!(f, "indirect call at {at} through invalid target {value}")
            }
            VmError::CallDepthExceeded => write!(f, "call depth limit exceeded"),
            VmError::FuelExhausted => write!(f, "instruction limit exceeded"),
            VmError::AllocationFailed { at, size } => {
                write!(f, "allocation of {size} bytes failed at {at}")
            }
            VmError::BadRandBound { at } => write!(f, "rand with non-positive bound at {at}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Summary counters for a completed execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExitStats {
    /// Instructions retired (`Compute(n)` counts as `n`).
    pub instructions: u64,
    /// Value returned by the entry function, if any.
    pub return_value: Option<i64>,
    /// Deepest call stack observed.
    pub max_depth: usize,
    /// malloc + calloc + realloc invocations.
    pub allocs: u64,
    /// free invocations (with non-null pointers).
    pub frees: u64,
    /// Load instructions executed.
    pub loads: u64,
    /// Store instructions executed.
    pub stores: u64,
    /// [`Op::ThreadSwitch`] instructions executed (zero for any
    /// single-threaded program — the thread-aware cache model keys its
    /// single-thread identity guarantee on this staying zero).
    pub thread_switches: u64,
}

struct Frame {
    func: FuncId,
    pc: u32,
    regs: [i64; NUM_REGS],
    ret_dst: Option<Reg>,
}

/// The interpreter for simulated binaries. See the [crate docs](crate) for
/// an end-to-end example.
pub struct Engine<'p> {
    program: &'p Program,
    limits: EngineLimits,
    seed: u64,
    entry_arg: i64,
    memory: Memory,
    group_state: GroupState,
}

impl<'p> Engine<'p> {
    /// Create an engine for `program` with default limits and seed 0.
    pub fn new(program: &'p Program) -> Self {
        let max_bit = program
            .functions
            .iter()
            .flat_map(|f| f.code.iter())
            .filter_map(|op| match op {
                Op::GroupSet(b) | Op::GroupClear(b) => Some(*b),
                _ => None,
            })
            .max()
            .map(|b| b as usize + 1)
            .unwrap_or(64);
        Engine {
            program,
            limits: EngineLimits::default(),
            seed: 0,
            entry_arg: 0,
            memory: Memory::new(),
            group_state: GroupState::new(max_bit),
        }
    }

    /// Set the seed feeding [`Op::Rand`].
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pass a scale argument to the entry function in `r0` (how workloads
    /// distinguish *train* from *ref* inputs without changing the binary).
    pub fn with_entry_arg(mut self, arg: i64) -> Self {
        self.entry_arg = arg;
        self
    }

    /// Override the execution limits.
    pub fn with_limits(mut self, limits: EngineLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The simulated memory (inspectable after a run).
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The group-state vector (inspectable after a run).
    pub fn group_state(&self) -> &GroupState {
        &self.group_state
    }

    /// Run the program to completion.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the program traps or exceeds a limit.
    pub fn run<A: VmAllocator + ?Sized, M: Monitor>(
        &mut self,
        alloc: &mut A,
        monitor: &mut M,
    ) -> Result<ExitStats, VmError> {
        let program = self.program;
        let limits = self.limits;
        let mut rng = SplitMix64::new(self.seed);
        let mut stats = ExitStats::default();
        let mut stack: Vec<Frame> = Vec::with_capacity(64);
        let mut entry_regs = [0i64; NUM_REGS];
        entry_regs[0] = self.entry_arg;
        stack.push(Frame { func: program.entry, pc: 0, regs: entry_regs, ret_dst: None });
        stats.max_depth = 1;

        // Pending Load/Store events. Flushed before every non-access
        // monitor event and before every exit from this function, so
        // monitors observe the pre-batching event order exactly (see
        // `AccessBatch`).
        let mut batch = AccessBatch::new();
        macro_rules! flush_accesses {
            () => {
                if !batch.is_empty() {
                    monitor.on_access_batch(&batch);
                    batch.clear();
                }
            };
        }

        // The outer loop runs once per frame activation: it caches the top
        // frame's function id, code slice, registers and pc in locals, so
        // the inner loop retires ops without re-deriving any of them. A
        // call saves the pc it will resume at into its frame; a return
        // pops the frame, pc and all. Both then re-enter here.
        'frames: loop {
            let frame = stack.last_mut().expect("non-empty stack");
            let func = frame.func;
            let code = program.function(func).code.as_slice();
            let regs = &mut frame.regs;
            let mut pc = frame.pc;

            loop {
                let op = &code[pc as usize];
                let here = CallSite::new(func, pc);

                stats.instructions += 1;
                if stats.instructions > limits.max_instructions {
                    flush_accesses!();
                    return Err(VmError::FuelExhausted);
                }

                let mut next_pc = pc + 1;
                match op {
                    Op::Imm(d, v) => regs[d.0 as usize] = *v,
                    Op::Mov(d, s) => regs[d.0 as usize] = regs[s.0 as usize],
                    Op::Add(d, a, b) => {
                        regs[d.0 as usize] = regs[a.0 as usize].wrapping_add(regs[b.0 as usize])
                    }
                    Op::AddImm(d, a, v) => regs[d.0 as usize] = regs[a.0 as usize].wrapping_add(*v),
                    Op::Sub(d, a, b) => {
                        regs[d.0 as usize] = regs[a.0 as usize].wrapping_sub(regs[b.0 as usize])
                    }
                    Op::Mul(d, a, b) => {
                        regs[d.0 as usize] = regs[a.0 as usize].wrapping_mul(regs[b.0 as usize])
                    }
                    Op::MulImm(d, a, v) => regs[d.0 as usize] = regs[a.0 as usize].wrapping_mul(*v),
                    Op::Div(d, a, b) => {
                        let bv = regs[b.0 as usize];
                        if bv == 0 {
                            flush_accesses!();
                            return Err(VmError::DivisionByZero { at: here });
                        }
                        regs[d.0 as usize] = regs[a.0 as usize].wrapping_div(bv);
                    }
                    Op::Rem(d, a, b) => {
                        let bv = regs[b.0 as usize];
                        if bv == 0 {
                            flush_accesses!();
                            return Err(VmError::DivisionByZero { at: here });
                        }
                        regs[d.0 as usize] = regs[a.0 as usize].wrapping_rem(bv);
                    }
                    Op::And(d, a, b) => {
                        regs[d.0 as usize] = regs[a.0 as usize] & regs[b.0 as usize]
                    }
                    Op::Or(d, a, b) => regs[d.0 as usize] = regs[a.0 as usize] | regs[b.0 as usize],
                    Op::Xor(d, a, b) => {
                        regs[d.0 as usize] = regs[a.0 as usize] ^ regs[b.0 as usize]
                    }
                    Op::Load { dst, base, offset, width } => {
                        let addr = (regs[base.0 as usize].wrapping_add(*offset)) as u64;
                        let v = self.memory.read(addr, width.bytes());
                        regs[dst.0 as usize] = v as i64;
                        stats.loads += 1;
                        if batch.push(addr, width.bytes() as u8, false) {
                            flush_accesses!();
                        }
                    }
                    Op::Store { src, base, offset, width } => {
                        let addr = (regs[base.0 as usize].wrapping_add(*offset)) as u64;
                        self.memory.write(addr, width.bytes(), regs[src.0 as usize] as u64);
                        stats.stores += 1;
                        if batch.push(addr, width.bytes() as u8, true) {
                            flush_accesses!();
                        }
                    }
                    Op::Call { args, dst, .. } | Op::CallIndirect { args, dst, .. } => {
                        let callee = match op {
                            Op::Call { func, .. } => *func,
                            Op::CallIndirect { target, .. } => {
                                let tv = regs[target.0 as usize];
                                if tv < 0 || tv as usize >= program.functions.len() {
                                    flush_accesses!();
                                    return Err(VmError::BadIndirectTarget { at: here, value: tv });
                                }
                                FuncId(tv as u32)
                            }
                            _ => unreachable!("matched as a call"),
                        };
                        let mut callee_regs = [0i64; NUM_REGS];
                        for (i, a) in args.iter().enumerate() {
                            callee_regs[i] = regs[a.0 as usize];
                        }
                        frame.pc = next_pc;
                        flush_accesses!();
                        monitor.on_call(here, callee);
                        stack.push(Frame { func: callee, pc: 0, regs: callee_regs, ret_dst: *dst });
                        stats.max_depth = stats.max_depth.max(stack.len());
                        if stack.len() > limits.max_call_depth {
                            return Err(VmError::CallDepthExceeded);
                        }
                        continue 'frames;
                    }
                    Op::Malloc { size, dst } => {
                        let sz = regs[size.0 as usize] as u64;
                        flush_accesses!();
                        let ptr = alloc.malloc(sz, here, &self.group_state, &mut self.memory);
                        if ptr == 0 {
                            return Err(VmError::AllocationFailed { at: here, size: sz });
                        }
                        regs[dst.0 as usize] = ptr as i64;
                        stats.allocs += 1;
                        monitor.on_alloc(AllocKind::Malloc, here, sz, ptr, 0);
                    }
                    Op::Calloc { count, size, dst } => {
                        let c = regs[count.0 as usize] as u64;
                        let sz = regs[size.0 as usize] as u64;
                        let total = c.saturating_mul(sz);
                        flush_accesses!();
                        let ptr = alloc.calloc(c, sz, here, &self.group_state, &mut self.memory);
                        if ptr == 0 {
                            return Err(VmError::AllocationFailed { at: here, size: total });
                        }
                        regs[dst.0 as usize] = ptr as i64;
                        stats.allocs += 1;
                        monitor.on_alloc(AllocKind::Calloc, here, total, ptr, 0);
                    }
                    Op::Realloc { ptr, size, dst } => {
                        let old = regs[ptr.0 as usize] as u64;
                        let sz = regs[size.0 as usize] as u64;
                        flush_accesses!();
                        let newp = if old == 0 {
                            alloc.malloc(sz, here, &self.group_state, &mut self.memory)
                        } else {
                            alloc.realloc(old, sz, here, &self.group_state, &mut self.memory)
                        };
                        if newp == 0 {
                            return Err(VmError::AllocationFailed { at: here, size: sz });
                        }
                        regs[dst.0 as usize] = newp as i64;
                        stats.allocs += 1;
                        monitor.on_alloc(AllocKind::Realloc, here, sz, newp, old);
                    }
                    Op::Free { ptr } => {
                        let p = regs[ptr.0 as usize] as u64;
                        if p != 0 {
                            flush_accesses!();
                            monitor.on_free(here, p);
                            alloc.free(p, &mut self.memory);
                            stats.frees += 1;
                        }
                    }
                    Op::Jump(t) => next_pc = *t,
                    Op::Branch { cond, a, b, target } => {
                        if cond.eval(regs[a.0 as usize], regs[b.0 as usize]) {
                            next_pc = *target;
                        }
                    }
                    Op::Compute(n) => {
                        // One instruction was already counted for the op itself;
                        // account for the remaining n-1 modelled instructions.
                        stats.instructions += n.saturating_sub(1);
                        flush_accesses!();
                        monitor.on_compute(*n);
                        if stats.instructions > limits.max_instructions {
                            return Err(VmError::FuelExhausted);
                        }
                    }
                    Op::Rand { dst, bound } => {
                        let b = regs[bound.0 as usize];
                        if b <= 0 {
                            flush_accesses!();
                            return Err(VmError::BadRandBound { at: here });
                        }
                        regs[dst.0 as usize] = rng.next_below(b as u64) as i64;
                    }
                    Op::Ret(v) => {
                        let value = v.map(|r| regs[r.0 as usize]);
                        let ret_dst = frame.ret_dst;
                        stack.pop();
                        flush_accesses!();
                        monitor.on_return(func);
                        match stack.last_mut() {
                            Some(caller) => {
                                if let (Some(dst), Some(val)) = (ret_dst, value) {
                                    caller.regs[dst.0 as usize] = val;
                                }
                                continue 'frames;
                            }
                            None => {
                                stats.return_value = value;
                                // The process-exit moment: let the allocator
                                // apply deferred work (e.g. queued remote
                                // frees) so post-run diagnostics see the
                                // whole stream.
                                alloc.run_finished(&mut self.memory);
                                return Ok(stats);
                            }
                        }
                    }
                    Op::ThreadSwitch(t) => {
                        stats.thread_switches += 1;
                        alloc.thread_switched(*t);
                        // The flush precedes the announcement so the buffered
                        // accesses are still attributed to the old thread.
                        flush_accesses!();
                        monitor.on_thread_switch(*t);
                    }
                    Op::GroupSet(b) => self.group_state.set(*b),
                    Op::GroupClear(b) => self.group_state.clear(*b),
                    Op::Nop => {}
                }
                pc = next_pc;
            }
        }
    }
}

/// The bump allocator: 8-byte-aligned regions (the paper's minimum
/// alignment, §4.4) handed out back to back through `[base, base + span)`.
/// `free` releases accounting but never reuses memory. For tests, doctests
/// and semantics-preservation oracles, and the pool inside `halo_mem`'s
/// random four-pool allocator.
#[derive(Debug)]
pub struct MallocOnlyAllocator {
    next: u64,
    /// One past the span, in whole granules: a request that would cross it
    /// fails (returns 0) instead of aliasing whatever lies beyond.
    limit: u64,
    sizes: std::collections::HashMap<u64, u64, crate::hash::FastIntState>,
    live_bytes: u64,
}

impl MallocOnlyAllocator {
    /// Heap base address used by [`Self::new`].
    pub const BASE: u64 = 0x1000_0000;

    /// Create an allocator bumping from [`Self::BASE`].
    pub fn new() -> Self {
        Self::with_base_span(Self::BASE, 1 << 36)
    }

    /// Create an allocator bumping through `[base, base + span)`; `base`
    /// is 8-byte aligned and not 0.
    pub fn with_base_span(base: u64, span: u64) -> Self {
        assert!(base > 0 && base.is_multiple_of(8), "bump base must be aligned and non-null");
        MallocOnlyAllocator {
            next: base,
            limit: base.saturating_add(span) & !7,
            sizes: Default::default(),
            live_bytes: 0,
        }
    }

    /// Bytes currently live, as requested.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Number of live allocations.
    pub fn live_objects(&self) -> usize {
        self.sizes.len()
    }
}

impl Default for MallocOnlyAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl VmAllocator for MallocOnlyAllocator {
    fn malloc(&mut self, size: u64, _site: CallSite, _gs: &GroupState, _mem: &mut Memory) -> u64 {
        let size = size.max(1);
        let ptr = self.next;
        let Some(end) = ptr.checked_add(size).filter(|&end| end <= self.limit) else {
            return 0; // span exhausted: allocation failure, not aliasing
        };
        self.next = end.next_multiple_of(8);
        self.sizes.insert(ptr, size);
        self.live_bytes += size;
        ptr
    }

    fn free(&mut self, ptr: u64, _mem: &mut Memory) {
        if let Some(size) = self.sizes.remove(&ptr) {
            self.live_bytes -= size;
        }
    }

    fn live_size(&self, ptr: u64) -> Option<u64> {
        self.sizes.get(&ptr).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ProgramBuilder};
    use crate::ids::{Cond, Width};

    fn r(n: u8) -> Reg {
        Reg(n)
    }

    /// Records the full event stream for oracle comparisons.
    #[derive(Debug, Default, PartialEq, Eq, Clone)]
    pub struct RecordingMonitor {
        pub events: Vec<String>,
    }

    impl Monitor for RecordingMonitor {
        fn on_call(&mut self, site: CallSite, callee: FuncId) {
            self.events.push(format!("call {site} -> {callee}"));
        }
        fn on_return(&mut self, callee: FuncId) {
            self.events.push(format!("ret {callee}"));
        }
        fn on_alloc(&mut self, kind: AllocKind, site: CallSite, size: u64, ptr: u64, old: u64) {
            self.events.push(format!("alloc {kind:?} {site} {size} -> {ptr} (old {old})"));
        }
        fn on_free(&mut self, site: CallSite, ptr: u64) {
            self.events.push(format!("free {site} {ptr}"));
        }
        fn on_access(&mut self, addr: u64, width: u8, store: bool) {
            self.events.push(format!("access {addr} w{width} store={store}"));
        }
    }

    /// A program of `main` alone, as `body` emits it.
    fn main_only(body: impl FnOnce(&mut FunctionBuilder)) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        body(&mut f);
        let main = f.finish();
        pb.finish(main)
    }

    fn run_program(p: &Program) -> (ExitStats, RecordingMonitor) {
        let mut alloc = MallocOnlyAllocator::new();
        let mut mon = RecordingMonitor::default();
        let stats = Engine::new(p).run(&mut alloc, &mut mon).expect("run ok");
        (stats, mon)
    }

    #[test]
    fn arithmetic_and_return_value() {
        let p = main_only(|f| {
            f.imm(r(0), 21).imm(r(1), 2).mul(r(2), r(0), r(1)).ret(Some(r(2)));
        });
        let (stats, _) = run_program(&p);
        assert_eq!(stats.return_value, Some(42));
        assert_eq!(stats.instructions, 4);
    }

    #[test]
    fn loops_branches_and_fuel_accounting() {
        // Sum 0..10 with a loop.
        let p = main_only(|f| {
            let top = f.label();
            let done = f.label();
            f.imm(r(0), 0).imm(r(1), 0).imm(r(2), 10);
            f.bind(top);
            f.branch(Cond::Ge, r(1), r(2), done);
            f.add(r(0), r(0), r(1));
            f.add_imm(r(1), r(1), 1);
            f.jump(top);
            f.bind(done);
            f.ret(Some(r(0)));
        });
        let (stats, _) = run_program(&p);
        assert_eq!(stats.return_value, Some(45));
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut pb = ProgramBuilder::new();
        let add2 = pb.declare("add2");
        let mut f = pb.function("main");
        f.imm(r(0), 40).imm(r(1), 2);
        f.call(add2, &[r(0), r(1)], Some(r(5)));
        f.ret(Some(r(5)));
        let main = f.finish();
        let mut g = pb.define(add2);
        g.argc(2);
        g.add(r(2), r(0), r(1));
        g.ret(Some(r(2)));
        g.finish();
        let p = pb.finish(main);
        let (stats, mon) = run_program(&p);
        assert_eq!(stats.return_value, Some(42));
        // add2 was declared first, so it is fn#0 and main is fn#1.
        assert!(mon.events.iter().any(|e| e.starts_with("call fn#1+2 -> fn#0")));
        assert!(mon.events.iter().any(|e| e == "ret fn#0"));
    }

    #[test]
    fn recursion_until_depth_limit_errors() {
        let p = main_only(|f| {
            let self_id = f.id();
            f.call(self_id, &[], None);
            f.ret(None);
        });
        let mut alloc = MallocOnlyAllocator::new();
        let mut mon = NullMonitor;
        let err = Engine::new(&p)
            .with_limits(EngineLimits { max_instructions: 1_000_000, max_call_depth: 32 })
            .run(&mut alloc, &mut mon)
            .unwrap_err();
        assert_eq!(err, VmError::CallDepthExceeded);
    }

    #[test]
    fn infinite_loop_exhausts_fuel() {
        let p = main_only(|f| {
            let top = f.label();
            f.bind(top);
            f.jump(top);
            f.ret(None);
        });
        let mut alloc = MallocOnlyAllocator::new();
        let err = Engine::new(&p)
            .with_limits(EngineLimits { max_instructions: 1000, max_call_depth: 16 })
            .run(&mut alloc, &mut NullMonitor)
            .unwrap_err();
        assert_eq!(err, VmError::FuelExhausted);
    }

    #[test]
    fn division_by_zero_traps_with_location() {
        let p = main_only(|f| {
            f.imm(r(0), 1).imm(r(1), 0).div(r(2), r(0), r(1)).ret(None);
        });
        let mut alloc = MallocOnlyAllocator::new();
        let err = Engine::new(&p).run(&mut alloc, &mut NullMonitor).unwrap_err();
        assert_eq!(err, VmError::DivisionByZero { at: CallSite::new(FuncId(0), 2) });
    }

    #[test]
    fn heap_roundtrip_through_memory() {
        let p = main_only(|f| {
            f.imm(r(0), 64);
            f.malloc(r(0), r(1));
            f.imm(r(2), 7);
            f.store(r(2), r(1), 16, Width::W4);
            f.load(r(3), r(1), 16, Width::W4);
            f.free(r(1));
            f.ret(Some(r(3)));
        });
        let (stats, mon) = run_program(&p);
        assert_eq!(stats.return_value, Some(7));
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(mon.events.iter().filter(|e| e.starts_with("access")).count(), 2);
    }

    #[test]
    fn calloc_zeroes_memory() {
        let p = main_only(|f| {
            f.imm(r(0), 4).imm(r(1), 8);
            f.calloc(r(0), r(1), r(2));
            f.load(r(3), r(2), 24, Width::W8);
            f.ret(Some(r(3)));
        });
        let (stats, _) = run_program(&p);
        assert_eq!(stats.return_value, Some(0));
    }

    #[test]
    fn realloc_preserves_contents() {
        let p = main_only(|f| {
            f.imm(r(0), 8);
            f.malloc(r(0), r(1));
            f.imm(r(2), 0x1234);
            f.store(r(2), r(1), 0, Width::W8);
            f.imm(r(0), 128);
            f.realloc(r(1), r(0), r(4));
            f.load(r(5), r(4), 0, Width::W8);
            f.ret(Some(r(5)));
        });
        let (stats, _) = run_program(&p);
        assert_eq!(stats.return_value, Some(0x1234));
    }

    #[test]
    fn realloc_of_null_acts_as_malloc() {
        let p = main_only(|f| {
            f.imm(r(0), 16).imm(r(1), 0);
            f.realloc(r(1), r(0), r(2));
            f.ret(Some(r(2)));
        });
        let (stats, _) = run_program(&p);
        assert!(stats.return_value.unwrap() >= MallocOnlyAllocator::BASE as i64);
    }

    #[test]
    fn free_null_is_noop() {
        let p = main_only(|f| {
            f.imm(r(0), 0);
            f.free(r(0));
            f.ret(None);
        });
        let (stats, mon) = run_program(&p);
        assert_eq!(stats.frees, 0);
        assert!(!mon.events.iter().any(|e| e.starts_with("free")));
    }

    #[test]
    fn indirect_call_resolves_function_ids() {
        let mut pb = ProgramBuilder::new();
        let a = pb.declare("a");
        let b = pb.declare("b");
        let mut f = pb.function("main");
        // Call b through a register.
        f.imm(r(0), b.0 as i64);
        f.call_indirect(r(0), &[], Some(r(1)));
        f.ret(Some(r(1)));
        let main = f.finish();
        let mut fa = pb.define(a);
        fa.imm(r(0), 1).ret(Some(r(0)));
        fa.finish();
        let mut fb = pb.define(b);
        fb.imm(r(0), 2).ret(Some(r(0)));
        fb.finish();
        let p = pb.finish(main);
        let (stats, _) = run_program(&p);
        assert_eq!(stats.return_value, Some(2));
    }

    #[test]
    fn indirect_call_to_garbage_traps() {
        let p = main_only(|f| {
            f.imm(r(0), 999);
            f.call_indirect(r(0), &[], None);
            f.ret(None);
        });
        let mut alloc = MallocOnlyAllocator::new();
        let err = Engine::new(&p).run(&mut alloc, &mut NullMonitor).unwrap_err();
        assert!(matches!(err, VmError::BadIndirectTarget { value: 999, .. }));
    }

    #[test]
    fn group_set_clear_visible_in_state() {
        let p = main_only(|f| {
            f.raw(Op::GroupSet(3));
            f.raw(Op::GroupSet(9));
            f.raw(Op::GroupClear(3));
            f.ret(None);
        });
        let mut alloc = MallocOnlyAllocator::new();
        let mut engine = Engine::new(&p);
        engine.run(&mut alloc, &mut NullMonitor).unwrap();
        assert!(!engine.group_state().test(3));
        assert!(engine.group_state().test(9));
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let p = main_only(|f| {
            f.imm(r(0), 1000);
            f.rand(r(1), r(0));
            f.ret(Some(r(1)));
        });
        let run = |seed| {
            let mut alloc = MallocOnlyAllocator::new();
            Engine::new(&p).with_seed(seed).run(&mut alloc, &mut NullMonitor).unwrap().return_value
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn thread_switch_reaches_allocator_and_monitor() {
        struct ThreadAware {
            inner: MallocOnlyAllocator,
            switches: Vec<u16>,
            finishes: u32,
        }
        impl VmAllocator for ThreadAware {
            fn malloc(&mut self, size: u64, s: CallSite, g: &GroupState, m: &mut Memory) -> u64 {
                self.inner.malloc(size, s, g, m)
            }
            fn free(&mut self, ptr: u64, m: &mut Memory) {
                self.inner.free(ptr, m)
            }
            fn live_size(&self, ptr: u64) -> Option<u64> {
                self.inner.live_size(ptr)
            }
            fn thread_switched(&mut self, thread: u16) {
                self.switches.push(thread);
            }
            fn run_finished(&mut self, _mem: &mut Memory) {
                self.finishes += 1;
            }
        }
        struct ThreadMonitor(Vec<u16>);
        impl Monitor for ThreadMonitor {
            fn on_thread_switch(&mut self, thread: u16) {
                self.0.push(thread);
            }
        }
        let p = main_only(|f| {
            f.thread_switch(2);
            f.imm(r(0), 8);
            f.malloc(r(0), r(1));
            f.thread_switch(0);
            f.free(r(1));
            f.ret(None);
        });
        let mut alloc =
            ThreadAware { inner: MallocOnlyAllocator::new(), switches: Vec::new(), finishes: 0 };
        let mut mon = ThreadMonitor(Vec::new());
        Engine::new(&p).run(&mut alloc, &mut mon).expect("runs");
        assert_eq!(alloc.switches, vec![2, 0]);
        assert_eq!(mon.0, vec![2, 0]);
        assert_eq!(alloc.finishes, 1, "run_finished fires exactly once on normal exit");
        // Oblivious allocators and monitors ignore the op entirely.
        let mut plain = MallocOnlyAllocator::new();
        let stats = Engine::new(&p).run(&mut plain, &mut NullMonitor).expect("runs");
        assert_eq!(stats.allocs, 1);
    }

    #[test]
    fn shared_reference_to_sync_allocator_is_a_vm_allocator() {
        // A Mutex-wrapped bump allocator exercises the &S bridge: two
        // engines (each with its own Memory) share one allocator.
        struct Locked(std::sync::Mutex<MallocOnlyAllocator>);
        impl SyncVmAllocator for Locked {
            fn malloc(&self, size: u64, s: CallSite, g: &GroupState, m: &mut Memory) -> u64 {
                self.0.lock().unwrap().malloc(size, s, g, m)
            }
            fn free(&self, ptr: u64, m: &mut Memory) {
                self.0.lock().unwrap().free(ptr, m)
            }
            fn live_size(&self, ptr: u64) -> Option<u64> {
                self.0.lock().unwrap().live_size(ptr)
            }
        }
        let p = main_only(|f| {
            f.imm(r(0), 32);
            f.malloc(r(0), r(1));
            f.ret(Some(r(1)));
        });
        let shared = Locked(std::sync::Mutex::new(MallocOnlyAllocator::new()));
        let mut h1 = &shared;
        let mut h2 = &shared;
        let a = Engine::new(&p).run(&mut h1, &mut NullMonitor).unwrap().return_value.unwrap();
        let b = Engine::new(&p).run(&mut h2, &mut NullMonitor).unwrap().return_value.unwrap();
        assert_ne!(a, b, "one shared heap: the second run bumps past the first");
    }

    #[test]
    fn compute_counts_instructions() {
        let p = main_only(|f| {
            f.compute(100);
            f.ret(None);
        });
        let (stats, _) = run_program(&p);
        // Compute(100) = 100 instructions, plus the Ret.
        assert_eq!(stats.instructions, 101);
    }

    /// Consumes the batched access stream directly, remembering how the
    /// engine chunked it.
    #[derive(Debug, Default)]
    struct BatchProbe {
        accesses: Vec<(u64, u8, bool)>,
        batches: Vec<usize>,
    }

    impl BatchProbe {
        /// Run `p` within `limits` under a fresh probe.
        fn run(p: &Program, limits: EngineLimits) -> (Result<ExitStats, VmError>, BatchProbe) {
            let mut probe = BatchProbe::default();
            let mut alloc = MallocOnlyAllocator::new();
            (Engine::new(p).with_limits(limits).run(&mut alloc, &mut probe), probe)
        }
    }

    impl Monitor for BatchProbe {
        fn on_access_batch(&mut self, batch: &AccessBatch) {
            self.batches.push(batch.len());
            for i in 0..batch.len() {
                self.accesses.push((batch.addrs()[i], batch.widths()[i], batch.stores()[i]));
            }
        }
    }

    /// A long run of straight-line accesses with no intervening events
    /// must arrive in capacity-sized chunks, in order, none dropped.
    #[test]
    fn batches_fill_to_capacity_and_flush_on_exit() {
        let n: i64 = AccessBatch::CAPACITY as i64 * 2 + 5;
        let p = main_only(|f| {
            f.imm(r(0), 64);
            f.malloc(r(0), r(1));
            f.imm(r(2), 0);
            f.imm(r(3), n);
            let top = f.label();
            let done = f.label();
            f.bind(top);
            f.branch(Cond::Ge, r(2), r(3), done);
            f.load(r(4), r(1), 0, Width::W8);
            f.add_imm(r(2), r(2), 1);
            f.jump(top);
            f.bind(done);
            f.ret(None);
        });
        let (run, probe) = BatchProbe::run(&p, EngineLimits::default());
        run.expect("runs");
        assert_eq!(probe.accesses.len(), n as usize);
        assert!(probe.accesses.iter().all(|&(_, w, s)| w == 8 && !s));
        // Two full batches, then the remainder flushed before on_return.
        assert_eq!(probe.batches, vec![AccessBatch::CAPACITY, AccessBatch::CAPACITY, 5]);
    }

    #[test]
    fn a_tee_gives_each_monitor_the_stream_it_sees_alone() {
        let p = main_only(|f| {
            f.imm(r(0), 16);
            f.malloc(r(0), r(1));
            f.store(r(0), r(1), 0, Width::W8);
            f.thread_switch(1);
            f.load(r(2), r(1), 8, Width::W4);
            f.free(r(1));
            f.ret(None);
        });
        let (_, recorded) = run_program(&p);
        let (_, probed) = BatchProbe::run(&p, EngineLimits::default());
        let mut tee = (RecordingMonitor::default(), BatchProbe::default());
        Engine::new(&p).run(&mut MallocOnlyAllocator::new(), &mut tee).expect("runs");
        assert_eq!(tee.0, recorded, "per-access delivery through the tee");
        assert_eq!((tee.1.accesses, tee.1.batches), (probed.accesses, probed.batches));
    }

    /// Batching must not reorder accesses against any other monitor
    /// event: the flush barriers make a per-access monitor's stream
    /// identical to the pre-batching engine.
    #[test]
    fn batched_delivery_preserves_event_order() {
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper");
        let mut f = pb.function("main");
        f.imm(r(0), 64);
        f.malloc(r(0), r(1));
        f.imm(r(2), 7);
        f.store(r(2), r(1), 0, Width::W8);
        f.call(helper, &[r(1)], None);
        f.free(r(1));
        f.ret(None);
        let main = f.finish();
        let mut g = pb.define(helper);
        g.argc(1);
        g.load(r(2), r(0), 0, Width::W8);
        g.ret(None);
        g.finish();
        let p = pb.finish(main);
        let (_, mon) = run_program(&p);
        let kinds: Vec<&str> =
            mon.events.iter().map(|e| e.split_whitespace().next().unwrap()).collect();
        // The store is delivered before on_call, the helper's load before
        // on_return — exactly the per-access order.
        assert_eq!(kinds, vec!["alloc", "access", "call", "access", "ret", "free", "ret"]);
    }

    /// A trap delivers the accesses buffered before it and names its own
    /// instruction — here in a frame entered by a call and resumed after a
    /// nested return, the two points where the loop re-fetches its cached
    /// function and pc.
    #[test]
    fn division_by_zero_flushes_and_reports_its_call_site() {
        let mut pb = ProgramBuilder::new();
        let outer = pb.declare("outer");
        let leaf = pb.declare("leaf");
        let mut f = pb.function("main");
        f.imm(r(0), 64);
        f.malloc(r(0), r(1));
        f.call(outer, &[r(1)], None);
        f.ret(None);
        let main = f.finish();
        let mut g = pb.define(outer);
        g.argc(1);
        g.call(leaf, &[r(0)], None);
        g.load(r(2), r(0), 8, Width::W4);
        g.imm(r(3), 0);
        g.div(r(4), r(2), r(3));
        g.ret(None);
        g.finish();
        let mut h = pb.define(leaf);
        h.argc(1);
        h.load(r(1), r(0), 0, Width::W8);
        h.ret(None);
        h.finish();
        let p = pb.finish(main);
        let (run, probe) = BatchProbe::run(&p, EngineLimits::default());
        let err = run.unwrap_err();
        assert_eq!(err, VmError::DivisionByZero { at: CallSite::new(outer, 3) });
        let base = MallocOnlyAllocator::BASE;
        assert_eq!(probe.accesses, vec![(base, 8, false), (base + 8, 4, false)]);
        assert_eq!(probe.batches, vec![1, 1], "leaf's load before its return, outer's at the trap");
    }

    /// Running out of fuel delivers every access retired before the limit.
    #[test]
    fn fuel_exhaustion_flushes_buffered_accesses() {
        let p = main_only(|f| {
            f.imm(r(0), 64);
            f.malloc(r(0), r(1));
            let top = f.label();
            f.bind(top);
            f.load(r(2), r(1), 0, Width::W8);
            f.jump(top);
            f.ret(None);
        });
        let limits = EngineLimits { max_instructions: 100, max_call_depth: 16 };
        let (run, probe) = BatchProbe::run(&p, limits);
        let err = run.unwrap_err();
        assert_eq!(err, VmError::FuelExhausted);
        // Instructions 3, 5, …, 99 are the loads; the 101st op never runs.
        assert_eq!(probe.batches, vec![49]);
    }

    /// The call that overflows the stack still flushes first, so the
    /// caller's accesses precede its `on_call` as on any other call.
    #[test]
    fn call_depth_exceeded_flushes_buffered_accesses() {
        let mut pb = ProgramBuilder::new();
        let rec = pb.declare("rec");
        let mut f = pb.function("main");
        f.imm(r(0), 64);
        f.malloc(r(0), r(1));
        f.call(rec, &[r(1)], None);
        f.ret(None);
        let main = f.finish();
        let mut g = pb.define(rec);
        g.argc(1);
        g.load(r(1), r(0), 0, Width::W8);
        g.call(rec, &[r(0)], None);
        g.ret(None);
        g.finish();
        let p = pb.finish(main);
        let mut alloc = MallocOnlyAllocator::new();
        let mut mon = RecordingMonitor::default();
        let err = Engine::new(&p)
            .with_limits(EngineLimits { max_instructions: 10_000, max_call_depth: 8 })
            .run(&mut alloc, &mut mon)
            .unwrap_err();
        assert_eq!(err, VmError::CallDepthExceeded);
        let kinds: Vec<&str> =
            mon.events.iter().map(|e| e.split_whitespace().next().unwrap()).collect();
        // main plus seven activations of `rec` fit; the eighth call trips
        // the limit after its load was flushed and its on_call delivered.
        let mut expected = vec!["alloc", "call"];
        expected.extend(["access", "call"].repeat(7));
        assert_eq!(kinds, expected);
    }

    fn site() -> CallSite {
        CallSite::new(FuncId(0), 0)
    }

    #[test]
    fn consecutive_allocations_are_contiguous_modulo_alignment() {
        let mut a = MallocOnlyAllocator::new();
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let p1 = a.malloc(24, site(), &gs, &mut mem);
        let p2 = a.malloc(8, site(), &gs, &mut mem);
        assert_eq!(p2, p1 + 24);
        let p3 = a.malloc(5, site(), &gs, &mut mem);
        assert_eq!(p3 % 8, 0);
        assert_eq!(p3, p2 + 8);
    }

    #[test]
    fn free_updates_accounting_but_not_reuse() {
        let mut a = MallocOnlyAllocator::new();
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let p1 = a.malloc(100, site(), &gs, &mut mem);
        assert_eq!(a.live_bytes(), 100);
        a.free(p1, &mut mem);
        assert_eq!(a.live_bytes(), 0);
        let p2 = a.malloc(100, site(), &gs, &mut mem);
        assert_ne!(p1, p2, "bump allocators never reuse");
    }

    #[test]
    fn realloc_copies_contents() {
        let mut a = MallocOnlyAllocator::new();
        let gs = GroupState::default();
        let mut mem = Memory::new();
        let p = a.malloc(16, site(), &gs, &mut mem);
        mem.write(p, 8, 0xfeed);
        let q = a.realloc(p, 64, site(), &gs, &mut mem);
        assert_eq!(mem.read(q, 8), 0xfeed);
        assert_eq!(a.live_objects(), 1);
    }

    #[test]
    fn a_request_past_the_span_fails_instead_of_aliasing_the_neighbour() {
        let mut a = MallocOnlyAllocator::with_base_span(0x1000, 64);
        let gs = GroupState::default();
        let mut mem = Memory::new();
        assert_eq!(a.malloc(60, site(), &gs, &mut mem), 0x1000);
        assert_eq!(a.malloc(8, site(), &gs, &mut mem), 0, "64 + 8 would cross into 0x1040");
        assert_eq!(a.live_objects(), 1, "a failed request is not accounted");
        assert_eq!(MallocOnlyAllocator::new().malloc(u64::MAX, site(), &gs, &mut mem), 0);
    }
}
