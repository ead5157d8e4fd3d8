//! Best-effort worker→CPU pinning (the `MEI_AFFINITY` knob).
//!
//! The serving engine runs one worker per chip and the pool/crew run one
//! worker per hardware thread; each worker owns the chip or shard state it
//! serves. Letting the OS migrate those workers across cores (or NUMA
//! nodes) drags the cached conductance planes along with them. With
//! `MEI_AFFINITY=compact` (or `=1`), every worker pins itself to
//! `worker_index mod hw_threads`, so worker `i` keeps re-running on the
//! core whose caches hold its state.
//!
//! The shim is strictly best-effort and deterministic-by-construction:
//! pinning changes *where* a worker runs, never what it computes, so the
//! workspace's parallelism-never-changes-bits rule is untouched. On
//! platforms without the syscall (anything but x86-64 Linux) the calls are
//! documented no-ops returning `false`; failures (e.g. a CPU index outside
//! the process's cpuset) are swallowed the same way.
//!
//! This is the only module in the workspace that uses `unsafe`: one inline
//! `sched_setaffinity(2)` syscall, with no pointer the kernel retains past
//! the call. The crate is `#![deny(unsafe_code)]` with a scoped allow here.

use std::sync::OnceLock;

/// How workers place themselves on CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AffinityMode {
    /// No pinning (the default): the OS scheduler decides.
    #[default]
    Disabled,
    /// Pin worker `i` to CPU `i mod hw_threads` — workers with adjacent
    /// indices land on adjacent cores, keeping each worker's chip state on
    /// one core's caches.
    Compact,
}

/// Parse an `MEI_AFFINITY` value. Unset, empty, `0` and `off` disable;
/// `1` and `compact` pin; anything else warns (once, at the call site's
/// first use) and disables — malformed ops knobs must not change behavior
/// silently.
#[must_use]
pub fn parse_mode(raw: Option<&str>) -> AffinityMode {
    match raw.map(str::trim) {
        None | Some("" | "0" | "off") => AffinityMode::Disabled,
        Some("1" | "compact") => AffinityMode::Compact,
        Some(other) => {
            eprintln!(
                "warning: MEI_AFFINITY={other:?} not recognized \
                 (use 0|off|1|compact); affinity disabled"
            );
            AffinityMode::Disabled
        }
    }
}

/// The process-wide mode, read once from `MEI_AFFINITY`.
#[must_use]
pub fn mode() -> AffinityMode {
    static MODE: OnceLock<AffinityMode> = OnceLock::new();
    *MODE.get_or_init(|| parse_mode(std::env::var("MEI_AFFINITY").ok().as_deref()))
}

/// Pin the calling worker under the process-wide [`mode`]: worker `index`
/// goes to CPU `index mod hw_threads` in [`AffinityMode::Compact`].
/// Returns whether a pin actually happened (always `false` when disabled
/// or unsupported); callers ignore the result — pinning is advisory.
pub fn pin_worker(index: usize) -> bool {
    match mode() {
        AffinityMode::Disabled => false,
        AffinityMode::Compact => pin_to_cpu(index % crate::pool::hardware_threads()),
    }
}

/// Pin the calling thread to one CPU, best-effort. `false` if the platform
/// has no affinity shim or the kernel rejected the mask (CPU offline or
/// outside the cpuset).
#[must_use]
pub fn pin_to_cpu(cpu: usize) -> bool {
    sys::set_affinity(cpu)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    /// CPUs addressable through the fixed-size mask (1024, matching
    /// glibc's `cpu_set_t`).
    const MAX_CPUS: usize = 1024;

    /// `sched_setaffinity(0, sizeof mask, &mask)` for the calling thread
    /// (pid 0 = self). The kernel copies the mask during the call; nothing
    /// borrowed escapes, so this is sound by inspection.
    #[allow(unsafe_code)]
    pub fn set_affinity(cpu: usize) -> bool {
        if cpu >= MAX_CPUS {
            return false;
        }
        let mut mask = [0u64; MAX_CPUS / 64];
        mask[cpu / 64] = 1u64 << (cpu % 64);
        let ret: i64;
        // SAFETY: raw syscall 203 (sched_setaffinity) with pid 0, a mask
        // sized and aligned as the kernel expects, read-only during the
        // call. Clobbers rcx/r11 per the x86-64 syscall ABI.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") 203_i64 => ret,
                in("rdi") 0_i64,
                in("rsi") core::mem::size_of_val(&mask),
                in("rdx") mask.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret == 0
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    /// No affinity shim on this platform: a documented no-op.
    pub fn set_affinity(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_documented_values() {
        assert_eq!(parse_mode(None), AffinityMode::Disabled);
        assert_eq!(parse_mode(Some("")), AffinityMode::Disabled);
        assert_eq!(parse_mode(Some("0")), AffinityMode::Disabled);
        assert_eq!(parse_mode(Some("off")), AffinityMode::Disabled);
        assert_eq!(parse_mode(Some("1")), AffinityMode::Compact);
        assert_eq!(parse_mode(Some("compact")), AffinityMode::Compact);
        assert_eq!(parse_mode(Some(" compact ")), AffinityMode::Compact);
        // Malformed values warn and disable rather than guessing.
        assert_eq!(parse_mode(Some("numa")), AffinityMode::Disabled);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pinning_to_cpu_zero_succeeds_and_out_of_range_fails() {
        // CPU 0 exists on every Linux host this test runs on.
        assert!(pin_to_cpu(0));
        assert!(!pin_to_cpu(usize::MAX));
    }

    #[test]
    fn pin_worker_is_a_no_op_when_disabled() {
        // The suite does not set MEI_AFFINITY, so the cached process-wide
        // mode is Disabled and pin_worker must decline.
        if mode() == AffinityMode::Disabled {
            assert!(!pin_worker(0));
        }
    }
}
