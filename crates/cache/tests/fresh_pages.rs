//! A hierarchy costs the pages its accesses touch, whatever hierarchies
//! the process built and dropped before it (DESIGN.md §14). One test in
//! a binary of its own, so no concurrent test moves the process's
//! resident set while it reads it. It runs where the cache arrays are
//! anonymous mappings.

#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
#[test]
fn a_third_hierarchy_is_as_lazy_as_the_first() {
    use halo_cache::{CoherentHierarchy, HierarchyConfig};

    // The process's resident set, in KiB.
    let rss_kib = || -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
        line.split_whitespace().nth(1).and_then(|kib| kib.parse().ok()).expect("VmRSS in kB")
    };
    let touched = || {
        let mut h = CoherentHierarchy::new(HierarchyConfig::xeon_w2195());
        h.access(0x1000, 8, false);
        h
    };
    // With `calloc`ed arrays, freeing the first hierarchy's 3.1 MiB L3
    // tag array raises glibc's mmap threshold past its size, so the
    // second's comes from a malloc arena and goes back to it on drop, and
    // the third is handed that recycled block, `memset` and resident in
    // full (≈ 3.5 MiB).
    drop(touched());
    drop(touched());
    let before = rss_kib();
    let third = touched();
    let grown = rss_kib().saturating_sub(before);
    assert_eq!(third.stats().l1_misses, 1);
    assert!(grown < 1024, "building a hierarchy and touching one line grew RSS by {grown} KiB");
}
