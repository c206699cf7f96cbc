//! What an experiment context adds to the process's peak resident set.
//!
//! `ExperimentContext::new` characterizes the model zoo on 600 validation
//! samples and keeps them. The samples are frame labels, so neither step
//! renders a pixel; rendering them instead grows the peak by about 10 MiB.
//! This binary holds one test, so nothing else runs in the process while it
//! reads the peak (`VmHWM`, as the benchmark reports it; Linux only).
#![cfg(target_os = "linux")]

use shift_experiments::ExperimentContext;

/// The process's peak resident set so far, in KiB.
fn peak_resident_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmHWM line in kB")
}

#[test]
fn a_full_size_context_grows_the_peak_resident_set_by_less_than_two_mib() {
    let before = peak_resident_kib();
    let ctx = ExperimentContext::new(2024);
    let after = peak_resident_kib();
    assert_eq!(ctx.characterization().sample_count(), 600);
    let grown = after.saturating_sub(before);
    assert!(
        grown < 2 * 1024,
        "the context grew the peak resident set by {grown} KiB ({before} -> {after} KiB)"
    );
}
