//! The benchmark's own determinism self-test.
//!
//! The allocation counter is process-wide, so the tests hold one lock:
//! runs must not overlap on parallel test threads.

use pipebench::driver::{run, Options, RunResult};
use pipebench::workload::Workload;
use std::sync::Mutex;
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn small(name: &str) -> Workload {
    let mut workload = Workload::by_name(name).expect("known workload");
    workload.nodes = workload.nodes.min(64);
    workload.buckets = workload.buckets.min(8);
    workload.herd = workload.herd.min(64);
    workload
}

fn options(workload: &Workload, seed: u64) -> Options {
    Options {
        workload: workload.clone(),
        seed,
        ops: 400,
        trace: false,
        setups: 1,
        kernel_every: None,
        kernel_baseline_us: 1_000.0,
    }
}

/// The quantities that must repeat exactly at one seed.
fn deterministic(result: &RunResult) -> [f64; 8] {
    [
        result.write.p50,
        result.write.p99,
        result.read.p50,
        result.read.p99,
        result.write_ops_per_vs,
        result.usd_per_mop,
        result.allocs_per_op,
        result.failed as f64 / result.attempted as f64,
    ]
}

fn clean(result: RunResult, what: &str) -> RunResult {
    assert!(
        result.violations.is_empty(),
        "{what}: {:#?}",
        result.violations
    );
    assert_eq!(result.failed, 0, "{what}: no op may fail");
    result
}

#[test]
fn runs_repeat_exactly_at_one_seed_and_differ_across_seeds() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for name in ["storm", "read_heavy", "durable"] {
        let workload = small(name);
        let first = clean(run(&options(&workload, 7)), name);
        let again = clean(run(&options(&workload, 7)), name);
        assert_eq!(
            deterministic(&first),
            deterministic(&again),
            "{name}: same seed"
        );
        assert!(
            first.write.n > 0 && first.read.n > 0,
            "{name}: both kinds measured"
        );

        let other = clean(run(&options(&workload, 8)), name);
        assert_ne!(
            deterministic(&first)[..4],
            deterministic(&other)[..4],
            "{name}: another seed must change the virtual-time metrics"
        );

        // Set-up repetitions and reference-kernel samples allocate, but
        // outside the counted window: neither may move allocs_per_op.
        let noisy = clean(
            run(&Options {
                setups: 2,
                kernel_every: Some(Duration::ZERO),
                ..options(&workload, 7)
            }),
            name,
        );
        assert_eq!(
            deterministic(&first),
            deterministic(&noisy),
            "{name}: exclusions"
        );
    }
}

#[test]
fn traced_run_sums_layers_exactly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let workload = small("storm");
    let result = clean(
        run(&Options {
            trace: true,
            ..options(&workload, 9)
        }),
        "traced storm",
    );
    let trace = result.trace.expect("traced run");
    assert_eq!(trace.layer_sum_checked as usize, result.write.n);
    assert_eq!(
        trace.layer_sum_residual_ns, 0,
        "client + follower + wait + busy = latency"
    );
}
