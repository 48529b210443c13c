//! Metric tables and the one-line JSON result.

use crate::driver::{RunResult, SeedProbe, Trace};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(result: &RunResult) -> Vec<Metric> {
    vec![
        metric("write_p50_ms", result.write.p50, "ms"),
        metric("write_p99_ms", result.write.p99, "ms"),
        metric("read_p50_ms", result.read.p50, "ms"),
        metric("read_p99_ms", result.read.p99, "ms"),
        metric("write_ops_per_vs", result.write_ops_per_vs, "1/s"),
        metric("usd_per_mop", result.usd_per_mop, "USD"),
        metric("allocs_per_op", result.allocs_per_op, "count"),
        metric("norm_cpu_us_per_op", result.norm_cpu_us_per_op, "us"),
        metric("peak_rss_mb", crate::cpu::peak_rss_mb(), "MB"),
        metric("setup_s", result.setup_s, "s"),
    ]
}

/// Leader phase labels reported per record (`unlabelled` collects the
/// charges made outside any label).
const PHASES: [(&str, &str); 7] = [
    (
        "update_user_storage",
        "leader.phase.update_user_storage_vms_per_record",
    ),
    ("pop_updates", "leader.phase.pop_updates_vms_per_record"),
    ("query_watches", "leader.phase.query_watches_vms_per_record"),
    ("get_node", "leader.phase.get_node_vms_per_record"),
    ("notify_client", "leader.phase.notify_client_vms_per_record"),
    (
        "advance_session_marks",
        "leader.phase.advance_session_marks_vms_per_record",
    ),
    ("", "leader.phase.unlabelled_vms_per_record"),
];

/// The per-layer metrics of a traced run. `untraced` is the same seed's
/// untraced run, for the tracing overhead.
pub fn per_layer(traced: &RunResult, untraced: &RunResult, probe: &SeedProbe) -> Vec<Metric> {
    let t: &Trace = traced.trace.as_ref().expect("traced run");
    let ops = traced.attempted as f64;
    let writes = traced.writes as f64;
    let reads = ops - writes;
    let us = |ns: u64| ns as f64 / 1e3;
    let vms = |ns: u64| ns as f64 / 1e6;
    let records = t.leader.items as f64;
    let done = t.leader_records_done as f64;
    let u = &t.usage;
    let kv_transact = u.per_op.get("kv_transact").copied().unwrap_or(0) as f64;
    let layers_cpu = t.client.cpu_ns
        + t.follower.cpu_ns
        + t.leader.cpu_ns
        + t.replica.cpu_ns
        + t.user_store.cpu_ns;
    let accounted = layers_cpu + t.driver_cpu_ns + t.kernel_cpu_ns;
    let (queue_share, kv_share, object_share, functions_share) = traced.cost_shares;
    let mut metrics = vec![
        metric("client.calls", t.client.calls as f64, "count"),
        metric(
            "client.allocs_per_call",
            ratio(t.client.allocs as f64, t.client.calls as f64),
            "count",
        ),
        metric(
            "client.cpu_us_per_call",
            ratio(us(t.client.cpu_ns), t.client.calls as f64),
            "us",
        ),
        metric("follower.invocations", t.follower.calls as f64, "count"),
        metric(
            "follower.msgs_per_invocation",
            ratio(t.follower.items as f64, t.follower.calls as f64),
            "count",
        ),
        metric(
            "follower.vms_per_msg",
            ratio(vms(t.follower.vns), t.follower.items as f64),
            "vms",
        ),
        metric(
            "follower.cpu_us_per_msg",
            ratio(us(t.follower.cpu_ns), t.follower.items as f64),
            "us",
        ),
        metric(
            "follower.allocs_per_msg",
            ratio(t.follower.allocs as f64, t.follower.items as f64),
            "count",
        ),
        metric("follower.deferred", t.follower_deferred as f64, "count"),
        metric("follower.failed", t.follower_failed as f64, "count"),
        metric("leader.invocations", t.leader.calls as f64, "count"),
        metric(
            "leader.records_per_invocation",
            ratio(records, t.leader.calls as f64),
            "count",
        ),
        metric(
            "leader.busy_vms_per_record",
            ratio(vms(t.leader.vns), done),
            "vms",
        ),
        metric(
            "leader.wait_vms_per_record",
            ratio(vms(t.leader_wait_ns), done),
            "vms",
        ),
        metric(
            "leader.deferred_invocations",
            t.leader_deferred as f64,
            "count",
        ),
        metric("leader.wall_ms", t.leader.wall_ns as f64 / 1e6, "ms"),
        metric("leader.cpu_ms", t.leader.cpu_ns as f64 / 1e6, "ms"),
        metric(
            "leader.allocs_per_record",
            ratio(t.leader.allocs as f64, records),
            "count",
        ),
        metric("leader.backlog_max", t.backlog_max as f64, "count"),
    ];
    let mut unlabelled = 0u64;
    for (label, total) in &t.phases {
        if !PHASES
            .iter()
            .any(|(known, _)| known == label && !known.is_empty())
        {
            unlabelled += total;
        }
    }
    for (label, name) in PHASES {
        let total = if label.is_empty() {
            unlabelled
        } else {
            t.phases.get(label).copied().unwrap_or(0)
        };
        metrics.push(metric(name, ratio(vms(total), done), "vms"));
    }
    metrics.extend([
        metric(
            "distributor.epochs_per_batch",
            ratio(t.epochs_applied as f64, t.leader.calls as f64),
            "count",
        ),
        metric("replica.serves", t.replica.calls as f64, "count"),
        metric(
            "replica.hit_ratio",
            ratio(t.replica.items as f64, t.replica.calls as f64),
            "ratio",
        ),
        metric(
            "replica.evictions",
            t.replica_stats.evictions as f64,
            "count",
        ),
        metric(
            "replica.stale_rejects",
            t.replica_stats.stale_rejects as f64,
            "count",
        ),
        metric(
            "replica.cpu_us_per_serve",
            ratio(us(t.replica.cpu_ns), t.replica.calls as f64),
            "us",
        ),
        metric("user_store.reads", t.user_store.calls as f64, "count"),
        metric(
            "user_store.vms_per_read",
            ratio(vms(t.user_store.vns), t.user_store.calls as f64),
            "vms",
        ),
        metric(
            "user_store.cpu_us_per_read",
            ratio(us(t.user_store.cpu_ns), t.user_store.calls as f64),
            "us",
        ),
        metric(
            "user_store.allocs_per_read",
            ratio(t.user_store.allocs as f64, t.user_store.calls as f64),
            "count",
        ),
        metric(
            "meter.kv_ops_per_write",
            ratio(u.kv_ops as f64, writes),
            "count",
        ),
        metric(
            "meter.kv_transact_per_write",
            ratio(kv_transact, writes),
            "count",
        ),
        metric(
            "meter.obj_put_per_write",
            ratio(u.obj_puts as f64, writes),
            "count",
        ),
        metric(
            "meter.obj_get_per_read",
            ratio(u.obj_gets as f64, reads),
            "count",
        ),
        metric(
            "meter.queue_msgs_per_write",
            ratio(u.queue_messages as f64, writes),
            "count",
        ),
        metric(
            "meter.fn_gb_s_per_kop",
            ratio(u.fn_gb_seconds * 1e3, ops),
            "GB-s",
        ),
        metric("meter.retries", u.retries as f64, "count"),
        metric("cost.kv_share", kv_share / 100.0, "ratio"),
        metric("cost.object_share", object_share / 100.0, "ratio"),
        metric("cost.queue_share", queue_share / 100.0, "ratio"),
        metric("cost.functions_share", functions_share / 100.0, "ratio"),
        metric("trace.spans_per_op", ratio(t.spans as f64, ops), "count"),
        metric(
            "driver.cpu_share",
            ratio(t.driver_cpu_ns as f64, t.clock_cpu_ns as f64),
            "ratio",
        ),
        metric("sweep.wall_s", traced.sweep_wall_s, "s"),
        metric(
            "check.layer_sum_writes",
            t.layer_sum_checked as f64,
            "count",
        ),
        metric(
            "check.layer_sum_residual_vns",
            t.layer_sum_residual_ns as f64,
            "ns",
        ),
        metric(
            "check.cpu_residual_share",
            ratio(
                t.rusage_cpu_ns as f64 - accounted as f64,
                t.rusage_cpu_ns as f64,
            ),
            "ratio",
        ),
        metric(
            "overhead.allocs_per_op",
            traced.allocs_per_op - untraced.allocs_per_op,
            "count",
        ),
        metric(
            "overhead.norm_cpu_us_per_op",
            traced.norm_cpu_us_per_op - untraced.norm_cpu_us_per_op,
            "us",
        ),
        metric(
            "untraced.raw_cpu_us_per_op",
            untraced.raw_cpu_us_per_op,
            "us",
        ),
        metric(
            "untraced.norm_cpu_us_per_op",
            untraced.norm_cpu_us_per_op,
            "us",
        ),
        metric("kernel.median_us", untraced.kernel_median_us, "us"),
        metric("kernel.spread", untraced.kernel_spread, "ratio"),
        metric("seed_probe.creates", probe.creates as f64, "count"),
        metric("seed_probe.wall_s", probe.wall_s, "s"),
        metric("seed_probe.cpu_s", probe.cpu_s, "s"),
        metric(
            "seed_probe.deferred_invocations",
            probe.deferred as f64,
            "count",
        ),
    ]);
    metrics
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Only a run that passed its integrity sweep gets one, so `correct` is
/// always true.
pub fn json_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A float as a JSON number: Rust's shortest round-trip form, which
/// keeps every digit the value has.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}
