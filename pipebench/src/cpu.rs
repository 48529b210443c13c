//! Process CPU clocks and the reference kernel that normalises them.
//!
//! On a shared host the same code takes a different amount of CPU from
//! run to run. The driver interleaves a fixed kernel with the workload
//! and rescales the workload's CPU by how fast the kernel ran next to
//! it, which cancels most of that drift.

use std::collections::HashMap;
use std::hint::black_box;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

/// CPU time of the whole process (user + system, all threads), ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The same quantity from `getrusage`, an independent accounting path
/// used to cross-check the clock-based layer attribution.
pub fn rusage_cpu_ns() -> u64 {
    let mut usage = Rusage {
        utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable rusage of the platform layout.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    let us = |tv: &Timeval| tv.tv_sec as u64 * 1_000_000 + tv.tv_usec as u64;
    (us(&usage.utime) + us(&usage.stime)) * 1_000
}

/// Peak resident set size (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The fixed reference kernel: allocation-, hashing- and copy-heavy like
/// the pipeline itself (string keys, small byte vectors, a hash map, a
/// sort). Always the same input; returns a checksum so nothing is
/// optimised away.
pub fn reference_kernel() -> u64 {
    const ENTRIES: u64 = 2_048;
    let mut map: HashMap<String, Vec<u8>> = HashMap::new();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..ENTRIES {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let key = format!("/f/n{}/k{}", i % 97, state % 10_007);
        let value = vec![(state & 0xFF) as u8; 32 + (state % 96) as usize];
        map.insert(key, value);
    }
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    let mut sum = 0u64;
    for key in &keys {
        let value = &map[*key];
        sum = sum
            .wrapping_mul(31)
            .wrapping_add(value.len() as u64 + value[0] as u64);
    }
    black_box(sum)
}

/// Repeats the kernel `reps` times and returns the CPU it used, ns.
pub fn time_kernel(reps: usize) -> u64 {
    let start = process_cpu_ns();
    for _ in 0..reps {
        black_box(reference_kernel());
    }
    process_cpu_ns() - start
}
