//! The serial discrete-event driver: one thread, open-loop arrivals in
//! virtual time, an elastic follower tier and one persistent virtual
//! clock per leader lane (the `fk-fleet` lane model).
//!
//! Every layer is reached through its public entry point: the client's
//! `ClientRequest::encode` + `Queue::send`, `Follower::process_messages`,
//! `Leader::process_messages`, `ReadReplica::serve` and
//! `UserStore::read_node`. With tracing on, each of these calls is
//! wrapped in CPU, allocation and virtual-time probes from here; the
//! program itself carries no benchmark code.

use crate::alloc;
use crate::cpu::{self, process_cpu_ns};
use crate::stats::{median, quartile_spread};
use crate::workload::{plan, Action, Plan, Workload};
use crossbeam::channel::Receiver;
use fk_cloud::metering::UsageSnapshot;
use fk_cloud::ops::Op;
use fk_cloud::queue::Message;
use fk_cloud::trace::{Ctx, LatencyMode};
use fk_core::consistency::check_tree_integrity;
use fk_core::deploy::{Deployment, DeploymentConfig};
use fk_core::follower::Follower;
use fk_core::leader::Leader;
use fk_core::messages::{
    ClientNotification, ClientRequest, LeaderRecord, MultiOp, Payload, WriteOp,
};
use fk_core::replica::{ReplicaConfig, ReplicaStats};
use fk_core::{CreateMode, DistributorConfig, WatchKind};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queue visibility window: far longer than any run, so redelivery only
/// happens through explicit nacks.
const VISIBILITY: Duration = Duration::from_secs(3600);

/// Messages per invocation (the deployed adaptive batcher's ceiling).
const LANE_BATCH: usize = 16;

/// Kernel repetitions per reference sample.
pub const KERNEL_REPS: usize = 2;

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Ops in the measured phase.
    pub ops: usize,
    /// Wrap every layer call in probes (the per-layer run).
    pub trace: bool,
    /// Complete set-ups per run; `setup_s` is their median, the last one
    /// is measured.
    pub setups: usize,
    /// Wall time between reference-kernel samples; `None` disables them.
    pub kernel_every: Option<Duration>,
    /// Reference-kernel CPU (`KERNEL_REPS` passes) recorded on the
    /// reference host, µs.
    pub kernel_baseline_us: f64,
}

/// A latency distribution summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Percentiles {
    /// Median, ms.
    pub p50: f64,
    /// 99th percentile, ms.
    pub p99: f64,
    /// Sample count.
    pub n: usize,
}

impl Percentiles {
    fn of(values: &mut [f64]) -> Percentiles {
        values.sort_by(|a, b| a.total_cmp(b));
        let rank = |p: f64| {
            if values.is_empty() {
                return 0.0;
            }
            let idx = ((p * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
            values[idx]
        };
        Percentiles {
            p50: rank(0.50),
            p99: rank(0.99),
            n: values.len(),
        }
    }
}

/// Per-layer probe totals of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Calls into the layer.
    pub calls: u64,
    /// Items the calls handled (messages, records).
    pub items: u64,
    /// Virtual time the calls spanned, ns.
    pub vns: u64,
    /// Process CPU the calls used (all threads), ns.
    pub cpu_ns: u64,
    /// Heap allocations during the calls.
    pub allocs: u64,
    /// Wall time of the calls, ns.
    pub wall_ns: u64,
}

/// Everything the traced run measures besides the end-to-end numbers.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Client encode + send.
    pub client: Layer,
    /// Follower invocations (items: messages).
    pub follower: Layer,
    /// Follower invocations that deferred / failed.
    pub follower_deferred: u64,
    /// Follower invocations that failed.
    pub follower_failed: u64,
    /// Leader invocations (items: records handed in).
    pub leader: Layer,
    /// Leader invocations that deferred part of their batch.
    pub leader_deferred: u64,
    /// Σ (lane start − record ready) over completed records, ns.
    pub leader_wait_ns: u64,
    /// Records completed through the lanes.
    pub leader_records_done: u64,
    /// Largest lane queue depth seen before an invocation.
    pub backlog_max: usize,
    /// Charged lane time per top-level phase label, ns.
    pub phases: BTreeMap<String, u64>,
    /// Replica serves.
    pub replica: Layer,
    /// Storage reads on replica fall-through.
    pub user_store: Layer,
    /// Spans the program recorded.
    pub spans: u64,
    /// Driver self CPU (time between layer calls), ns.
    pub driver_cpu_ns: u64,
    /// Writes whose layer sum was checked.
    pub layer_sum_checked: u64,
    /// Σ |client + follower + wait + busy − latency| over checked
    /// writes, ns (must be 0).
    pub layer_sum_residual_ns: u64,
    /// Measured-phase CPU by the process clock, ns.
    pub clock_cpu_ns: u64,
    /// Measured-phase CPU by `getrusage`, ns.
    pub rusage_cpu_ns: u64,
    /// Reference-kernel CPU, ns.
    pub kernel_cpu_ns: u64,
    /// Replica `epochs_applied` during the measured phase.
    pub epochs_applied: u64,
    /// Replica stats delta.
    pub replica_stats: ReplicaStats,
    /// Meter delta.
    pub usage: UsageSnapshot,
}

/// The result of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Ops issued.
    pub attempted: usize,
    /// Ops not completed: dead-lettered or stranded writes, read errors.
    pub failed: usize,
    /// Writes issued.
    pub writes: usize,
    /// Write latency, ms virtual.
    pub write: Percentiles,
    /// Read latency, ms virtual.
    pub read: Percentiles,
    /// Completed writes per virtual second of the measured window.
    pub write_ops_per_vs: f64,
    /// Metered cost of the measured phase per 10⁶ ops, USD.
    pub usd_per_mop: f64,
    /// Cost shares `(queue, kv, object, functions)`, percent.
    pub cost_shares: (f64, f64, f64, f64),
    /// Heap allocations per op in the measured phase.
    pub allocs_per_op: f64,
    /// Raw process CPU per op, µs.
    pub raw_cpu_us_per_op: f64,
    /// Kernel-normalised process CPU per op, µs.
    pub norm_cpu_us_per_op: f64,
    /// Reference-kernel samples.
    pub kernel_samples: usize,
    /// Within-run spread of the kernel samples (IQR / median).
    pub kernel_spread: f64,
    /// Median kernel sample, µs.
    pub kernel_median_us: f64,
    /// Median set-up CPU time, rescaled by the reference kernel, s.
    pub setup_s: f64,
    /// Every set-up's wall time, s.
    pub setup_samples: Vec<f64>,
    /// Measured-phase wall time, s.
    pub measure_wall_s: f64,
    /// Integrity-sweep wall time, s.
    pub sweep_wall_s: f64,
    /// Integrity violations (empty on a correct run).
    pub violations: Vec<String>,
    /// Probe totals (traced runs only).
    pub trace: Option<Trace>,
}

/// Bookkeeping of one in-flight write.
#[derive(Debug, Clone, Copy)]
struct Pending {
    arrival_ns: u64,
    client_end_ns: u64,
    ready_ns: u64,
}

/// One leader shard-group lane: a persistent virtual clock that only
/// advances by processing, and the follower-completion times of the
/// records queued on it, in queue order.
struct Lane {
    ctx: Ctx,
    busy_until_ns: u64,
    ready: VecDeque<u64>,
    blocked: bool,
}

/// CPU accounting for the measured phase: the process clock is read at
/// kernel samples (and, traced, around every layer call); the reference
/// kernel runs between them.
struct Clock {
    mark: u64,
    workload_ns: u64,
    kernels: Vec<u64>,
    every: Option<Duration>,
    last_kernel: Instant,
    ticks: u64,
}

impl Clock {
    fn new(every: Option<Duration>) -> Self {
        Clock {
            mark: process_cpu_ns(),
            workload_ns: 0,
            kernels: Vec::new(),
            every,
            last_kernel: Instant::now(),
            ticks: 0,
        }
    }

    /// CPU since the last lap, charged to the workload.
    fn lap(&mut self) -> u64 {
        let now = process_cpu_ns();
        let delta = now - self.mark;
        self.mark = now;
        self.workload_ns += delta;
        delta
    }

    /// Runs the reference kernel if a sample is due. Its CPU and
    /// allocations are kept out of the workload's. Returns the CPU since
    /// the last lap and the CPU the sample took, warm-up pass included.
    fn tick(&mut self) -> Option<(u64, u64)> {
        self.ticks += 1;
        let every = self.every?;
        if !self.ticks.is_multiple_of(8) || self.last_kernel.elapsed() < every {
            return None;
        }
        let gap = self.lap();
        let counting = alloc::is_counting();
        alloc::set_counting(false);
        // One untimed pass first: the timed passes then find the
        // allocator and caches in the same warm state every sample.
        std::hint::black_box(cpu::reference_kernel());
        let kernel = cpu::time_kernel(KERNEL_REPS);
        self.kernels.push(kernel);
        alloc::set_counting(counting);
        let now = process_cpu_ns();
        let spent = now - self.mark;
        self.mark = now;
        self.last_kernel = Instant::now();
        Some((gap, spent))
    }

    /// (raw workload ns, normalised ns). The workload's CPU is rescaled
    /// by the recorded baseline over the mean kernel sample of this run;
    /// the workload and the kernel slow down in proportion, so the ratio
    /// cancels most host drift.
    fn totals(&self, baseline_ns: f64) -> (f64, f64) {
        let raw = self.workload_ns as f64;
        if self.kernels.is_empty() {
            return (raw, raw);
        }
        let mean = self.kernels.iter().sum::<u64>() as f64 / self.kernels.len() as f64;
        (raw, raw * baseline_ns / mean)
    }
}

/// Probes around one layer call (traced runs only).
struct Probe {
    allocs0: u64,
    wall0: Instant,
}

const TRACED_CLOCK: &str = "a traced run keeps a CPU clock";

/// Everything the driver threads through one run.
struct Bench {
    workload: Workload,
    seed: u64,
    deployment: Deployment,
    follower: Follower,
    leader: Leader,
    lanes: Vec<Lane>,
    pending: HashMap<(String, u64), Pending>,
    write_latencies_ms: Vec<f64>,
    completed: usize,
    last_completion_ns: u64,
    clock: Option<Clock>,
    trace: Option<Trace>,
}

fn session_name(i: usize) -> String {
    format!("s{i}")
}

impl Bench {
    fn new(workload: &Workload, seed: u64) -> Self {
        let mut config = DeploymentConfig::aws()
            .with_distributor(DistributorConfig::new(workload.shards, LANE_BATCH))
            .with_shard_groups(workload.groups)
            .with_replicas(ReplicaConfig::with_count(1).with_byte_budget(workload.replica_budget))
            .with_mode(LatencyMode::Virtual, seed);
        if workload.durable {
            config = config.durable();
        }
        let deployment = Deployment::direct(config);
        let follower = deployment.make_follower();
        let leader = deployment.make_leader_inline();
        let lanes = (0..deployment.leader_queues().shards())
            .map(|g| {
                let ctx = Ctx::new(
                    Arc::clone(deployment.model()),
                    deployment.config().mode,
                    seed ^ (g as u64).wrapping_mul(0x9E37_79B9),
                );
                ctx.set_region(deployment.config().regions[0]);
                Lane {
                    ctx,
                    busy_until_ns: 0,
                    ready: VecDeque::new(),
                    blocked: false,
                }
            })
            .collect();
        Bench {
            workload: workload.clone(),
            seed,
            deployment,
            follower,
            leader,
            lanes,
            pending: HashMap::new(),
            write_latencies_ms: Vec::new(),
            completed: 0,
            last_completion_ns: 0,
            clock: None,
            trace: None,
        }
    }

    fn fresh_ctx(&self, salt: u64) -> Ctx {
        let ctx = Ctx::new(
            Arc::clone(self.deployment.model()),
            self.deployment.config().mode,
            self.seed ^ salt,
        );
        ctx.set_region(self.deployment.config().regions[0]);
        ctx
    }

    /// Opens a probe around a layer call; the CPU since the previous
    /// probe was the driver's own.
    fn probe(&mut self) -> Option<Probe> {
        let trace = self.trace.as_mut()?;
        trace.driver_cpu_ns += self.clock.as_mut().expect(TRACED_CLOCK).lap();
        Some(Probe {
            allocs0: alloc::count(),
            wall0: Instant::now(),
        })
    }

    /// Closes a probe into the layer `pick` selects.
    fn close(
        &mut self,
        probe: Option<Probe>,
        pick: fn(&mut Trace) -> &mut Layer,
        items: u64,
        vns: u64,
    ) {
        let (Some(probe), Some(trace)) = (probe, self.trace.as_mut()) else {
            return;
        };
        let layer = pick(trace);
        layer.calls += 1;
        layer.items += items;
        layer.vns += vns;
        layer.cpu_ns += self.clock.as_mut().expect(TRACED_CLOCK).lap();
        layer.allocs += alloc::count() - probe.allocs0;
        layer.wall_ns += probe.wall0.elapsed().as_nanos() as u64;
    }

    fn tick(&mut self) {
        if let Some(clock) = self.clock.as_mut() {
            if let Some((gap, kernel)) = clock.tick() {
                if let Some(trace) = self.trace.as_mut() {
                    trace.driver_cpu_ns += gap;
                    trace.kernel_cpu_ns += kernel;
                }
            }
        }
    }

    /// Client-side encode + enqueue at `ctx` time.
    fn submit(&mut self, ctx: &Ctx, session: &str, request_id: u64, op: WriteOp, arrival_ns: u64) {
        let probe = self.probe();
        let request = ClientRequest {
            session_id: session.to_owned(),
            request_id,
            op,
        };
        ctx.charge(Op::ClientWork, self.workload.payload);
        let body = request.encode();
        self.deployment
            .write_queue()
            .send(ctx, session, body)
            .expect("write-queue send cannot fail without chaos");
        let client_end_ns = ctx.now_ns();
        self.close(probe, |t| &mut t.client, 1, client_end_ns - arrival_ns);
        self.pending.insert(
            (session.to_owned(), request_id),
            Pending {
                arrival_ns,
                client_end_ns,
                ready_ns: client_end_ns,
            },
        );
    }

    /// Drains the write queue through the follower on `ctx` (the elastic
    /// tier: each request's invocation runs on its own clock). Records
    /// pushed to a leader lane become ready when the invocation ends.
    fn run_follower(&mut self, ctx: &Ctx) {
        let queue_kind = self.deployment.config().queue_kind();
        let follower_env = self.deployment.config().follower_fn.env();
        let memory_mb = self.deployment.config().follower_fn.memory_mb;
        for _ in 0..256 {
            let Some(batch) = self
                .deployment
                .write_queue()
                .receive(LANE_BATCH, VISIBILITY)
            else {
                return;
            };
            let before: Vec<usize> = (0..self.lanes.len())
                .map(|g| self.deployment.leader_queues().queue(g).pending())
                .collect();
            let probe = self.probe();
            let vns0 = ctx.now_ns();
            let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
            ctx.charge(Op::QueueDispatch(queue_kind), bytes);
            ctx.charge(Op::FnWarmOverhead, 0);
            let started = ctx.now();
            let outcome = ctx.with_env(follower_env, || {
                self.follower.process_messages(ctx, &batch.messages)
            });
            self.deployment
                .meter()
                .fn_invocation(memory_mb, ctx.now().saturating_sub(started));
            let ready = ctx.now_ns();
            let done = match &outcome {
                Ok(()) => batch.messages.len(),
                Err(e) => e.failed_index.min(batch.messages.len()),
            };
            self.close(
                probe,
                |t| &mut t.follower,
                batch.messages.len() as u64,
                ready - vns0,
            );
            match outcome {
                Ok(()) => self.deployment.write_queue().ack(batch.receipt),
                Err(e) if e.deferred => {
                    if let Some(trace) = self.trace.as_mut() {
                        trace.follower_deferred += 1;
                    }
                    self.deployment
                        .write_queue()
                        .nack_deferred(batch.receipt, e.failed_index)
                }
                Err(e) => {
                    if let Some(trace) = self.trace.as_mut() {
                        trace.follower_failed += 1;
                    }
                    self.deployment
                        .write_queue()
                        .nack(batch.receipt, e.failed_index)
                }
            }
            for (g, before) in before.into_iter().enumerate() {
                let pushed = self
                    .deployment
                    .leader_queues()
                    .queue(g)
                    .pending()
                    .saturating_sub(before);
                self.lanes[g]
                    .ready
                    .extend(std::iter::repeat_n(ready, pushed));
            }
            if self.trace.is_some() {
                self.mark_ready(&batch.messages[..done], ready);
            }
        }
    }

    fn mark_ready(&mut self, messages: &[Message], ready_ns: u64) {
        for message in messages {
            if let Some(request) = ClientRequest::decode(&message.body) {
                if let Some(p) = self
                    .pending
                    .get_mut(&(request.session_id, request.request_id))
                {
                    p.ready_ns = ready_ns;
                }
            }
        }
    }

    /// Records completions of leader-batch messages `[..upto]`.
    fn complete(&mut self, messages: &[Message], upto: usize, start_ns: u64, completion_ns: u64) {
        for message in &messages[..upto.min(messages.len())] {
            let Some(record) = LeaderRecord::decode(&message.body) else {
                continue;
            };
            let Some(p) = self.pending.remove(&(record.session_id, record.request_id)) else {
                continue;
            };
            let latency_ns = completion_ns - p.arrival_ns;
            self.write_latencies_ms.push(latency_ns as f64 / 1e6);
            self.completed += 1;
            self.last_completion_ns = self.last_completion_ns.max(completion_ns);
            if let Some(trace) = self.trace.as_mut() {
                let client = p.client_end_ns - p.arrival_ns;
                let follower = p.ready_ns - p.client_end_ns;
                let wait = start_ns - p.ready_ns;
                let busy = completion_ns - start_ns;
                trace.leader_wait_ns += wait;
                trace.leader_records_done += 1;
                trace.layer_sum_checked += 1;
                trace.layer_sum_residual_ns +=
                    (client + follower + wait + busy).abs_diff(latency_ns);
            }
        }
    }

    /// The virtual time lane `g` could start its next invocation, if it
    /// has work and is not waiting on another lane.
    fn next_start(&self, g: usize) -> Option<u64> {
        let lane = &self.lanes[g];
        if lane.blocked || self.deployment.leader_queues().queue(g).pending() == 0 {
            return None;
        }
        let head = lane.ready.front().copied().unwrap_or(lane.busy_until_ns);
        Some(lane.busy_until_ns.max(head))
    }

    /// Runs lane invocations in virtual-time order while one can start by
    /// `now_ns` (all of them when `None`). A batch holds the queued
    /// records already ready when the lane starts. A lane that defers
    /// on a predecessor held in another lane waits until some other lane
    /// makes progress.
    fn run_lanes(&mut self, now_ns: Option<u64>) {
        let queue_kind = self.deployment.config().queue_kind();
        let leader_env = self.deployment.config().leader_fn.env();
        let leader_mb = self.deployment.config().leader_fn.memory_mb;
        loop {
            let Some((g, start_ns)) = (0..self.lanes.len())
                .filter_map(|g| self.next_start(g).map(|s| (g, s)))
                .min_by_key(|&(g, s)| (s, g))
            else {
                return;
            };
            if now_ns.is_some_and(|now| start_ns > now) {
                return;
            }
            let queue = self.deployment.leader_queues().queue(g);
            let depth = queue.pending();
            let take = self.lanes[g]
                .ready
                .iter()
                .take(LANE_BATCH)
                .take_while(|&&ready| ready <= start_ns)
                .count()
                .max(1);
            let Some(batch) = queue.receive(take, VISIBILITY) else {
                return;
            };
            if let Some(trace) = self.trace.as_mut() {
                trace.backlog_max = trace.backlog_max.max(depth);
            }
            let probe = self.probe();
            let lane = &self.lanes[g];
            lane.ctx.merge_time_ns(start_ns);
            let bytes: usize = batch.messages.iter().map(|m| m.body.len()).sum();
            lane.ctx.charge(Op::QueueDispatch(queue_kind), bytes);
            lane.ctx.charge(Op::FnWarmOverhead, 0);
            let started = lane.ctx.now();
            let outcome = lane.ctx.with_env(leader_env, || {
                self.leader.process_messages(&lane.ctx, &batch.messages)
            });
            self.deployment
                .meter()
                .fn_invocation(leader_mb, lane.ctx.now().saturating_sub(started));
            let completion_ns = lane.ctx.now_ns();
            let n = batch.messages.len();
            self.close(probe, |t| &mut t.leader, n as u64, completion_ns - start_ns);
            self.drain_spans(g);
            let done = match &outcome {
                Ok(()) => n,
                Err(e) => e.failed_index.min(n),
            };
            self.complete(&batch.messages, done, start_ns, completion_ns);
            let queue = self.deployment.leader_queues().queue(g);
            match outcome {
                Ok(()) => queue.ack(batch.receipt),
                Err(e) if e.deferred => {
                    if let Some(trace) = self.trace.as_mut() {
                        trace.leader_deferred += 1;
                    }
                    queue.nack_deferred(batch.receipt, e.failed_index)
                }
                Err(e) => queue.nack(batch.receipt, e.failed_index),
            }
            let lane = &mut self.lanes[g];
            lane.busy_until_ns = completion_ns;
            lane.ready.drain(..done.min(lane.ready.len()));
            if done > 0 {
                self.lanes.iter_mut().for_each(|lane| lane.blocked = false);
            } else {
                self.lanes[g].blocked = true;
            }
            self.tick();
        }
    }

    /// Drops the spans a lane recorded (traced: after folding them into
    /// the per-phase totals), so the sink stays bounded.
    fn drain_spans(&mut self, g: usize) {
        let ctx = &self.lanes[g].ctx;
        if let Some(trace) = self.trace.as_mut() {
            for (phase, total) in ctx.phase_totals() {
                *trace.phases.entry(phase).or_insert(0) += total.as_nanos() as u64;
            }
            trace.spans += ctx.take_spans().len() as u64;
        } else {
            drop(ctx.take_spans());
        }
    }

    /// Creates `paths` through the pipeline, one fresh seeder session
    /// each (so no create waits on another's predecessor), all arriving
    /// at the current lane horizon; then drains the lanes.
    fn seed_wave(&mut self, paths: &[String], data: &[u8], first_seeder: &mut usize) {
        let base = self.horizon();
        for path in paths {
            let seeder = format!("seed{first_seeder}");
            *first_seeder += 1;
            let ctx = self.fresh_ctx(0x30_0000 + *first_seeder as u64);
            self.deployment
                .system()
                .register_session(&ctx, &seeder, 0)
                .expect("register seeder");
            ctx.merge_time_ns(base);
            self.submit(
                &ctx,
                &seeder,
                1,
                WriteOp::Create {
                    path: path.clone(),
                    payload: Payload::inline(data),
                    mode: CreateMode::Persistent,
                },
                base,
            );
            self.run_follower(&ctx);
            self.tick();
        }
        self.run_lanes(None);
    }

    /// The latest lane clock.
    fn horizon(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.busy_until_ns)
            .max()
            .unwrap_or(0)
    }
}

/// A deployment in the state the measured phase starts from.
struct Prepared {
    bench: Bench,
    endpoints: Vec<(String, Receiver<ClientNotification>)>,
    keepalive: Vec<Arc<AtomicBool>>,
}

/// Set-up: deployment, session registration, tree seeding, watch herd
/// and observer endpoints. Returns the prepared deployment and the
/// set-up's CPU rescaled by the reference kernel samples taken during
/// it, s.
fn set_up(workload: &Workload, seed: u64, plan: &Plan, options: &Options) -> (Prepared, f64) {
    let clock = Clock::new(options.kernel_every);
    let mut bench = Bench::new(workload, seed);
    bench.clock = Some(clock);
    {
        let ctx = bench.fresh_ctx(0x10_0000);
        for i in 0..plan.sessions.max(workload.herd) {
            bench
                .deployment
                .system()
                .register_session(&ctx, &session_name(i), 0)
                .expect("register session");
            bench.tick();
        }
    }
    let payload = vec![0x5A; workload.payload];
    let mut seeder = 0usize;
    bench.seed_wave(&["/f".to_owned()], b"", &mut seeder);
    if workload.buckets > 0 {
        let buckets: Vec<String> = (0..workload.buckets).map(|b| format!("/f/b{b}")).collect();
        bench.seed_wave(&buckets, b"", &mut seeder);
    }
    let keys: Vec<String> = (0..workload.nodes).map(|i| workload.key_path(i)).collect();
    bench.seed_wave(&keys, &payload, &mut seeder);
    {
        let ctx = bench.fresh_ctx(0x40_0000);
        let hot = workload.key_path(0);
        for i in 0..workload.herd {
            let session = session_name(i);
            let system = bench.deployment.system();
            system
                .register_watch(&ctx, &hot, WatchKind::Data, &session)
                .expect("register data watch");
            if i % 16 == 0 {
                system
                    .register_watch(&ctx, "/f", WatchKind::Subtree, &session)
                    .expect("register subtree watch");
            }
            bench.tick();
        }
    }
    let mut endpoints = Vec::new();
    let mut keepalive = Vec::new();
    for i in 0..workload.observers {
        let session = session_name(i);
        let (rx, alive) = bench.deployment.bus().register(&session);
        alive.store(true, Ordering::SeqCst);
        endpoints.push((session, rx));
        keepalive.push(alive);
    }
    for lane in &bench.lanes {
        drop(lane.ctx.take_spans());
    }
    let mut clock = bench.clock.take().expect("set-up clock");
    clock.lap();
    let (_, norm_ns) = clock.totals(options.kernel_baseline_us * 1e3);
    let prepared = Prepared {
        bench,
        endpoints,
        keepalive,
    };
    (prepared, norm_ns / 1e9)
}

/// Runs one workload end to end: set-up (repeated), measured phase,
/// integrity sweep.
pub fn run(options: &Options) -> RunResult {
    let workload = &options.workload;
    let plan = plan(workload, options.ops, options.seed);
    // Set-up is timed like the measured phase: process CPU, rescaled by
    // the reference kernel samples taken during it. Its wall time is
    // printed too; on a shared host that also carries time spent
    // descheduled.
    let mut setup_samples = Vec::new();
    let mut setup_norm_s = Vec::new();
    let mut prepared = None;
    for _ in 0..options.setups.max(1) {
        drop(prepared.take());
        let wall = Instant::now();
        let (ready, norm_s) = set_up(workload, options.seed, &plan, options);
        setup_samples.push(wall.elapsed().as_secs_f64());
        setup_norm_s.push(norm_s);
        prepared = Some(ready);
    }
    let Prepared {
        mut bench,
        endpoints,
        keepalive,
    } = prepared.expect("at least one set-up");

    // ------------------------------------------------------------------
    // Measured phase.
    // ------------------------------------------------------------------
    let meter_before = bench.deployment.meter().snapshot();
    let replica = bench.deployment.replicas().replica_for("reader");
    let replica_before = replica.as_ref().map(|r| r.stats()).unwrap_or_default();
    if options.trace {
        bench.trace = Some(Trace::default());
    }
    let wall = Instant::now();
    let rusage0 = cpu::rusage_cpu_ns();
    let clock0 = process_cpu_ns();
    let allocs0 = alloc::count();
    bench.clock = Some(Clock::new(options.kernel_every));
    alloc::set_counting(true);

    // Set-up's seeding writes are not part of the measured phase.
    bench.write_latencies_ms.clear();
    bench.completed = 0;
    let base_ns = bench.horizon();
    bench.last_completion_ns = base_ns;
    let interarrival_ns = 1e9 / workload.rate_hz;
    let mut request_ids = vec![0u64; plan.sessions];
    let mut expected: HashMap<String, Vec<u8>> = HashMap::new();
    let mut read_latencies_ms = Vec::new();
    let mut read_errors = 0usize;
    let mut writes = 0usize;
    let mut creates = 0usize;
    for (k, op) in plan.ops.iter().enumerate() {
        let arrival_ns = base_ns + (k as f64 * interarrival_ns) as u64;
        let ctx = bench.fresh_ctx(0x50_0000 + k as u64);
        ctx.advance(Duration::from_nanos(arrival_ns));
        let session = session_name(op.session);
        let write = match op.action {
            Action::Read(key) => {
                let path = workload.key_path(key);
                let mrd = bench.deployment.floors().committed();
                let probe = bench.probe();
                let served = replica
                    .as_ref()
                    .and_then(|replica| replica.serve(&ctx, &path, mrd))
                    .is_some();
                let after_replica = ctx.now_ns();
                bench.close(
                    probe,
                    |t| &mut t.replica,
                    u64::from(served),
                    after_replica - arrival_ns,
                );
                if !served {
                    let probe = bench.probe();
                    if bench
                        .deployment
                        .user_store()
                        .read_node(&ctx, &path)
                        .is_err()
                    {
                        read_errors += 1;
                    }
                    bench.close(
                        probe,
                        |t| &mut t.user_store,
                        1,
                        ctx.now_ns() - after_replica,
                    );
                }
                read_latencies_ms.push((ctx.now_ns() - arrival_ns) as f64 / 1e6);
                if let Some(trace) = bench.trace.as_mut() {
                    trace.spans += ctx.take_spans().len() as u64;
                }
                bench.tick();
                continue;
            }
            Action::Set(key) => {
                let path = workload.key_path(key);
                let mut value = vec![0u8; workload.payload];
                value[..8].copy_from_slice(&(k as u64).to_le_bytes());
                let op = WriteOp::SetData {
                    path: path.clone(),
                    payload: Payload::inline(&value),
                    expected_version: -1,
                };
                expected.insert(path, value);
                op
            }
            Action::Multi(key) => {
                let path = workload.key_path(key);
                let mut value = vec![0u8; workload.payload];
                value[..8].copy_from_slice(&(k as u64).to_le_bytes());
                let op = WriteOp::Multi {
                    ops: vec![
                        MultiOp::Check {
                            path: path.clone(),
                            expected_version: -1,
                        },
                        MultiOp::SetData {
                            path: path.clone(),
                            payload: Payload::inline(&value),
                            expected_version: -1,
                        },
                    ],
                };
                expected.insert(path, value);
                op
            }
            Action::Create => {
                let path = workload.cold_path(creates);
                creates += 1;
                let mut value = vec![0x5Au8; workload.payload];
                value[..8].copy_from_slice(&(k as u64).to_le_bytes());
                let op = WriteOp::Create {
                    path: path.clone(),
                    payload: Payload::inline(&value),
                    mode: CreateMode::Persistent,
                };
                expected.insert(path, value);
                op
            }
        };
        writes += 1;
        request_ids[op.session] += 1;
        bench.submit(&ctx, &session, request_ids[op.session], write, arrival_ns);
        bench.run_follower(&ctx);
        if let Some(trace) = bench.trace.as_mut() {
            trace.spans += ctx.take_spans().len() as u64;
        }
        let ready = ctx.now_ns();
        bench.run_lanes(Some(ready));
        bench.tick();
    }
    bench.run_lanes(None);

    alloc::set_counting(false);
    let allocs = alloc::count() - allocs0;
    let baseline_ns = options.kernel_baseline_us * 1e3;
    let mut clock = bench.clock.take().expect("clock");
    let last_gap = clock.lap();
    if let Some(trace) = bench.trace.as_mut() {
        trace.driver_cpu_ns += last_gap;
    }
    let (raw_ns, norm_ns) = clock.totals(baseline_ns);
    let clock_cpu_ns = process_cpu_ns() - clock0;
    let rusage_cpu_ns = cpu::rusage_cpu_ns() - rusage0;
    let measure_wall_s = wall.elapsed().as_secs_f64();
    let usage = bench.deployment.meter().snapshot().since(&meter_before);
    let replica_after = replica.as_ref().map(|r| r.stats()).unwrap_or_default();

    // ------------------------------------------------------------------
    // Integrity sweep.
    // ------------------------------------------------------------------
    let sweep = Instant::now();
    let mut violations = Vec::new();
    let ctx = bench.fresh_ctx(0x60_0000);
    for violation in check_tree_integrity(
        &ctx,
        bench.deployment.system(),
        bench.deployment.user_store().as_ref(),
    ) {
        violations.push(format!("Z1: {violation:?}"));
    }
    let dead = dead_letters(&bench.deployment);
    let stranded = bench.pending.len().saturating_sub(dead.len());
    if bench.completed + dead.len() < writes {
        violations.push(format!(
            "ack accounting: {writes} issued, {} completed, {} dead",
            bench.completed,
            dead.len()
        ));
    }
    // Convergence: the last acknowledged value of a sample of paths is
    // what storage holds, and what the replica serves agrees with it.
    let mut paths: Vec<&String> = expected.keys().collect();
    paths.sort();
    let step = (paths.len() / 512).max(1);
    let mrd = bench.deployment.floors().committed();
    for path in paths.iter().step_by(step) {
        let value = &expected[*path];
        match bench.deployment.user_store().read_node(&ctx, path) {
            Ok(Some(record)) => {
                if record.data.as_ref() != value.as_slice() {
                    violations.push(format!("convergence: {path} diverged from last ack"));
                }
                if let Some(served) = replica.as_ref().and_then(|r| r.serve(&ctx, path, mrd)) {
                    if served.data != record.data {
                        violations.push(format!("replica: {path} diverged from storage"));
                    }
                }
            }
            Ok(None) => violations.push(format!("convergence: {path} missing")),
            Err(e) => violations.push(format!("convergence: {path} unreadable: {e:?}")),
        }
    }
    check_observers(workload, &endpoints, &expected, &mut violations);
    drop(keepalive);
    let sweep_wall_s = sweep.elapsed().as_secs_f64();

    // ------------------------------------------------------------------
    // Metrics.
    // ------------------------------------------------------------------
    let attempted = plan.ops.len();
    let window_s = bench.last_completion_ns.saturating_sub(base_ns) as f64 / 1e9;
    let cost = fk_cost::usage::price_usage(&usage, &fk_cost::pricing::AwsPricing::default());
    let kernel_us: Vec<f64> = clock.kernels.iter().map(|&k| k as f64 / 1e3).collect();
    let trace = bench.trace.take().map(|mut trace| {
        trace.clock_cpu_ns = clock_cpu_ns;
        trace.rusage_cpu_ns = rusage_cpu_ns;
        trace.epochs_applied = replica_after.epochs_applied - replica_before.epochs_applied;
        trace.replica_stats = ReplicaStats {
            hits: replica_after.hits - replica_before.hits,
            misses: replica_after.misses - replica_before.misses,
            stale_rejects: replica_after.stale_rejects - replica_before.stale_rejects,
            evictions: replica_after.evictions - replica_before.evictions,
            epochs_applied: trace.epochs_applied,
            ..replica_after
        };
        trace.usage = usage.clone();
        trace
    });
    RunResult {
        attempted,
        failed: dead.len() + stranded + read_errors,
        writes,
        write: Percentiles::of(&mut bench.write_latencies_ms),
        read: Percentiles::of(&mut read_latencies_ms),
        write_ops_per_vs: bench.completed as f64 / window_s.max(f64::MIN_POSITIVE),
        usd_per_mop: cost.total() / attempted as f64 * 1e6,
        cost_shares: cost.shares(),
        allocs_per_op: allocs as f64 / attempted as f64,
        raw_cpu_us_per_op: raw_ns / attempted as f64 / 1e3,
        norm_cpu_us_per_op: norm_ns / attempted as f64 / 1e3,
        kernel_samples: kernel_us.len(),
        kernel_spread: quartile_spread(&kernel_us),
        kernel_median_us: median(&kernel_us),
        setup_s: median(&setup_norm_s),
        setup_samples,
        measure_wall_s,
        sweep_wall_s,
        violations,
        trace,
    }
}

fn dead_letters(deployment: &Deployment) -> Vec<(String, u64)> {
    let mut dead = Vec::new();
    for message in deployment.write_queue().dead_letters() {
        if let Some(request) = ClientRequest::decode(&message.body) {
            dead.push((request.session_id, request.request_id));
        }
    }
    for message in deployment.leader_queues().drain_dead_letters() {
        if let Some(record) = LeaderRecord::decode(&message.body) {
            dead.push((record.session_id, record.request_id));
        }
    }
    dead
}

/// Z2/Z3 on the observers' delivery streams: write results arrive in
/// submission order with strictly increasing txids, no txid reaches two
/// sessions; one-shot herd watches fire at most once per session and
/// path, and do fire when the hot key was written.
fn check_observers(
    workload: &Workload,
    endpoints: &[(String, Receiver<ClientNotification>)],
    expected: &HashMap<String, Vec<u8>>,
    violations: &mut Vec<String>,
) {
    let hot = workload.key_path(0);
    let mut seen_txids: HashMap<u64, &str> = HashMap::new();
    let mut fired: HashMap<(&str, String), usize> = HashMap::new();
    let mut deliveries = 0usize;
    for (session, rx) in endpoints {
        let mut last_request = 0u64;
        let mut last_txid = 0u64;
        for notification in rx.try_iter() {
            match notification {
                ClientNotification::WriteResult {
                    request_id,
                    result: Ok(_),
                    txid,
                } => {
                    if request_id == last_request && txid == last_txid {
                        continue;
                    }
                    if request_id <= last_request {
                        violations.push(format!(
                            "Z2: {session} got request {request_id} after {last_request}"
                        ));
                    }
                    if txid <= last_txid {
                        violations.push(format!("Z2: {session} txid {txid} not above {last_txid}"));
                    }
                    if let Some(other) = seen_txids.insert(txid, session) {
                        if other != session {
                            violations
                                .push(format!("Z3: txid {txid} seen at {other} and {session}"));
                        }
                    }
                    last_request = request_id;
                    last_txid = txid;
                }
                ClientNotification::WriteResult {
                    result: Err(e),
                    request_id,
                    ..
                } => {
                    violations.push(format!("{session} request {request_id} failed: {e:?}"));
                }
                ClientNotification::Watch(event) => {
                    deliveries += 1;
                    if event.path != hot && event.path != "/f" {
                        violations.push(format!("herd: {session} got a watch for {}", event.path));
                    }
                    *fired.entry((session, event.path.clone())).or_insert(0) += 1;
                }
                ClientNotification::Ping { .. } => {}
            }
        }
    }
    for ((session, path), count) in &fired {
        if *count > 1 {
            violations.push(format!(
                "Z4: one-shot watch on {path} fired {count} times for {session}"
            ));
        }
    }
    let herd_observed = workload.herd.min(workload.observers) > 0;
    if herd_observed && expected.contains_key(&hot) && deliveries == 0 {
        violations.push("herd: hot key written but no watch was delivered".to_owned());
    }
}

/// What the set-up seeding probe measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeedProbe {
    /// Creates issued.
    pub creates: usize,
    /// Wall time, s.
    pub wall_s: f64,
    /// Process CPU, s.
    pub cpu_s: f64,
    /// Leader invocations that deferred on a cross-group predecessor.
    pub deferred: u64,
}

/// Set-up as the fleet harness seeds its hot tree: one session creates
/// the root and 256 keys in a burst, across the workload's groups. Each
/// create's predecessor may sit unprocessed in another lane, and the
/// leader's hold-back poll then sleeps before it defers. Measures the
/// wall time, CPU and deferrals this costs.
pub fn seed_probe(workload: &Workload, seed: u64) -> SeedProbe {
    const KEYS: u64 = 256;
    let mut bench = Bench::new(workload, seed);
    let session = "probe";
    let ctx = bench.fresh_ctx(0x70_0000);
    bench
        .deployment
        .system()
        .register_session(&ctx, session, 0)
        .expect("register probe session");
    bench.trace = Some(Trace::default());
    bench.clock = Some(Clock::new(None));
    let wall = Instant::now();
    let cpu0 = process_cpu_ns();
    let payload = vec![0x5A; 128];
    let paths = std::iter::once("/f".to_owned()).chain((0..KEYS).map(|i| format!("/f/n{i}")));
    for (j, path) in paths.enumerate() {
        let ctx = bench.fresh_ctx(0x70_0001 + j as u64);
        let create = WriteOp::Create {
            path,
            payload: Payload::inline(if j == 0 { b"" } else { &payload }),
            mode: CreateMode::Persistent,
        };
        bench.submit(&ctx, session, j as u64 + 1, create, 0);
        bench.run_follower(&ctx);
        if j == 0 {
            bench.run_lanes(None);
        } else {
            bench.run_lanes(Some(ctx.now_ns()));
        }
    }
    bench.run_lanes(None);
    SeedProbe {
        creates: KEYS as usize + 1,
        wall_s: wall.elapsed().as_secs_f64(),
        cpu_s: (process_cpu_ns() - cpu0) as f64 / 1e9,
        deferred: bench.trace.map(|t| t.leader_deferred).unwrap_or(0),
    }
}
