//! Memory accounting: a peak-RSS / bytes-allocated probe.
//!
//! Two complementary signals, both cheap enough to sample around every run:
//!
//! * **Resident set** from `/proc/self/status` — `VmRSS` (current) and
//!   `VmHWM` (the process-lifetime high-water mark). The high-water mark is
//!   monotone, so sweeping points from small `n` to large `n` attributes
//!   each point's *increment* to that point.
//! * **Allocator counters** from the [`CountingAlloc`] installed as the
//!   crate's global allocator: cumulative bytes allocated, live bytes, and
//!   the live-bytes high-water mark. Unlike RSS these see every allocation,
//!   including ones the OS never had to back with new pages.
//!
//! On platforms without `/proc` the RSS fields read as 0; the allocator
//! counters always work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative bytes ever allocated.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live (allocated − freed).
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`].
static LIVE_PEAK: AtomicU64 = AtomicU64::new(0);

/// A counting wrapper around the system allocator. Installed as this
/// crate's `#[global_allocator]`, so every binary and test that links the
/// harness gets allocation accounting for free (two relaxed atomic ops per
/// allocation).
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    LIVE_PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

#[allow(unsafe_code)]
// SAFETY: defers to `System` for every operation; the counters are purely
// observational and never influence allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[allow(unsafe_code)]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Reads a `kB`-denominated field from `/proc/self/status`, in bytes.
/// Returns 0 when the file or the field is unavailable (non-Linux hosts).
fn proc_status_bytes(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim();
            return kb.parse::<u64>().unwrap_or(0) * 1024;
        }
    }
    0
}

/// Current resident set size in bytes (`VmRSS`; 0 if unavailable).
pub fn current_rss_bytes() -> u64 {
    proc_status_bytes("VmRSS")
}

/// Process-lifetime peak resident set size in bytes (`VmHWM`; 0 if
/// unavailable). Monotone non-decreasing.
pub fn peak_rss_bytes() -> u64 {
    proc_status_bytes("VmHWM")
}

/// Cumulative bytes ever allocated through the global allocator.
pub fn bytes_allocated() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes currently live (allocated − freed).
pub fn bytes_live() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live bytes. Monotone non-decreasing.
pub fn bytes_live_peak() -> u64 {
    LIVE_PEAK.load(Ordering::Relaxed)
}

/// A point-in-time snapshot of every probe signal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSample {
    /// Current resident set (`VmRSS`), bytes; 0 if unavailable.
    pub rss: u64,
    /// Peak resident set (`VmHWM`), bytes; 0 if unavailable.
    pub peak_rss: u64,
    /// Cumulative bytes allocated so far.
    pub allocated: u64,
    /// Live heap bytes.
    pub live: u64,
    /// High-water mark of live heap bytes.
    pub live_peak: u64,
}

impl MemSample {
    /// Takes a snapshot now.
    pub fn now() -> MemSample {
        MemSample {
            rss: current_rss_bytes(),
            peak_rss: peak_rss_bytes(),
            allocated: bytes_allocated(),
            live: bytes_live(),
            live_peak: bytes_live_peak(),
        }
    }
}

/// Before/after memory accounting of one measured region (e.g. one
/// [`crate::run()`] call), plus its wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MemUsage {
    /// Snapshot at region entry.
    pub before: MemSample,
    /// Snapshot at region exit.
    pub after: MemSample,
    /// Wall-clock milliseconds spent in the region.
    pub wall_ms: f64,
}

impl MemUsage {
    /// Bytes allocated inside the region.
    pub fn allocated_delta(&self) -> u64 {
        self.after.allocated.saturating_sub(self.before.allocated)
    }

    /// Peak-RSS growth across the region (0 when the region stayed under
    /// the pre-existing high-water mark).
    pub fn peak_rss_delta(&self) -> u64 {
        self.after.peak_rss.saturating_sub(self.before.peak_rss)
    }
}

/// Formats a byte count as mebibytes with one decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Prints a one-line process memory summary to stderr. Called by the
/// `exp` binary at exit so every experiment reports its footprint.
pub fn print_process_summary(label: &str) {
    eprintln!(
        "[{label}] peak-RSS {} MiB (now {} MiB), heap: {} MiB allocated, {} MiB live-peak",
        mib(peak_rss_bytes()),
        mib(current_rss_bytes()),
        mib(bytes_allocated()),
        mib(bytes_live_peak()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_counters_move() {
        let before = MemSample::now();
        let v: Vec<u8> = vec![0xAB; 1 << 20];
        let after = MemSample::now();
        assert!(
            after.allocated >= before.allocated + (1 << 20),
            "cumulative allocation must include the 1 MiB buffer"
        );
        assert!(after.live_peak >= before.live_peak);
        drop(v);
        assert!(bytes_live() < after.live);
    }

    #[test]
    fn rss_probe_reads_proc_when_present() {
        let rss = current_rss_bytes();
        let peak = peak_rss_bytes();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0, "VmRSS should be non-zero on Linux");
            assert!(peak >= rss, "high-water mark below current RSS");
        } else {
            assert_eq!(rss, 0);
        }
    }

    #[test]
    fn mem_usage_deltas_saturate() {
        let usage = MemUsage {
            before: MemSample {
                allocated: 10,
                peak_rss: 100,
                ..MemSample::default()
            },
            after: MemSample::default(),
            wall_ms: 0.0,
        };
        assert_eq!(usage.allocated_delta(), 0);
        assert_eq!(usage.peak_rss_delta(), 0);
        assert_eq!(mib(1024 * 1024 * 3 / 2), "1.5");
    }
}
