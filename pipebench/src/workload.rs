//! The four workloads and the seeded input plan each run is driven by.

use fk_cloud::queue::group_of;
use fk_workloads::SeededZipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One workload's shape. Every field is fixed per workload name; only
/// the seed varies between runs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name, as given to `--workload`.
    pub name: &'static str,
    /// Leader shard groups.
    pub groups: usize,
    /// Distributor path shards (each runs on its own scoped thread, so at
    /// most the host's two cores).
    pub shards: usize,
    /// LSM-backed system and user stores (`DeploymentConfig::durable`).
    pub durable: bool,
    /// Replica byte budget.
    pub replica_budget: usize,
    /// Pre-created keys the zipf draws index.
    pub nodes: u64,
    /// Keys live under this many parent directories (0: directly under
    /// the tree root, as in the fleet storm).
    pub buckets: u64,
    /// Zipf skew of the key draw.
    pub theta: f64,
    /// Fraction of replica-first reads.
    pub reads: f64,
    /// Fraction of check+set `multi`s.
    pub multis: f64,
    /// Fraction of cold creates.
    pub creates: f64,
    /// Payload bytes of a `set_data`, `multi` or create.
    pub payload: usize,
    /// Sessions with data watches on the hottest key (every 16th also a
    /// subtree watch on the root).
    pub herd: usize,
    /// Sessions with live notification endpoints whose streams the
    /// integrity sweep checks for Z2/Z3.
    pub observers: usize,
    /// Offered load, ops per virtual second (open loop, even spacing).
    pub rate_hz: f64,
    /// Ops driven per `--seconds` of run time. Fixed per workload, so the
    /// same seed and duration always drive the same inputs.
    pub ops_per_second: usize,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["storm", "saturated", "read_heavy", "durable"];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        // The fleet storm shape (BENCH_fleet.json): 2 groups, zipf 0.99
        // over 256 hot keys, 65/15/10/10 set/read/multi/create. The two
        // groups together complete about 29 writes per virtual second.
        let storm = Workload {
            name: "storm",
            groups: 2,
            shards: 2,
            durable: false,
            replica_budget: 64 << 20,
            nodes: 256,
            buckets: 0,
            theta: 0.99,
            reads: 0.15,
            multis: 0.10,
            creates: 0.10,
            payload: 128,
            herd: 2048,
            observers: 64,
            // 60% of capacity: 17.4 writes + 3.1 reads per virtual second.
            rate_hz: 20.5,
            ops_per_second: 2_500,
        };
        Some(match name {
            "storm" => storm,
            "saturated" => Workload {
                name: "saturated",
                // About twice capacity: 58 writes per virtual second.
                rate_hz: 68.0,
                ..storm
            },
            "read_heavy" => Workload {
                name: "read_heavy",
                groups: 1,
                replica_budget: 512 << 10,
                nodes: 4_096,
                buckets: 64,
                reads: 0.90,
                multis: 0.0,
                creates: 0.0,
                payload: 512,
                herd: 0,
                observers: 16,
                // 6 writes per virtual second on the single lane.
                rate_hz: 60.0,
                ops_per_second: 50_000,
                ..storm
            },
            "durable" => Workload {
                name: "durable",
                groups: 1,
                // One path shard: with two, the shard threads insert into
                // the LSM memtable in a timing-dependent order, and the
                // sorted memtable's node allocations then differ by one
                // or two per ~10^5 from run to run.
                shards: 1,
                durable: true,
                // Small enough that most reads fall through to the LSM.
                replica_budget: 256 << 10,
                nodes: 1_024,
                buckets: 32,
                theta: 0.6,
                reads: 0.15,
                multis: 0.0,
                creates: 0.25,
                payload: 1_024,
                herd: 0,
                observers: 16,
                rate_hz: 8.0,
                ops_per_second: 4_000,
            },
            _ => return None,
        })
    }

    /// Path of pre-created key `i`.
    pub fn key_path(&self, i: u64) -> String {
        if self.buckets == 0 {
            format!("/f/n{i}")
        } else {
            format!("/f/b{}/n{i}", i % self.buckets)
        }
    }

    /// Path of the `k`-th cold create.
    pub fn cold_path(&self, k: usize) -> String {
        if self.buckets == 0 {
            format!("/f/x{k}")
        } else {
            format!("/f/b{}/x{k}", k as u64 % self.buckets)
        }
    }
}

/// What one planned op does.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Replica-first read of a key.
    Read(u64),
    /// `set_data` of a key.
    Set(u64),
    /// Check + `set_data` of one key as a `multi`.
    Multi(u64),
    /// Create of a fresh path.
    Create,
}

/// One op of the open-loop schedule.
#[derive(Debug, Clone)]
pub struct PlannedOp {
    /// Session index: `< observers` are observer sessions (group-affine,
    /// many writes each); the rest write once.
    pub session: usize,
    /// What to do.
    pub action: Action,
}

/// The seeded input plan of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Ops in arrival order; op `k` arrives at `k / rate_hz` virtual
    /// seconds after the measured phase opens.
    pub ops: Vec<PlannedOp>,
    /// Sessions the plan uses (all registered during set-up).
    pub sessions: usize,
}

/// Ops per mix deck: every block of this many consecutive ops holds the
/// workload's mix exactly, in a seeded order, so op counts per kind do
/// not vary between seeds.
const DECK: usize = 20;

#[derive(Clone, Copy)]
enum Kind {
    Read,
    Create,
    Multi,
    Set,
}

fn shuffled_deck(workload: &Workload, rng: &mut SmallRng) -> Vec<Kind> {
    let count = |fraction: f64| (fraction * DECK as f64).round() as usize;
    let mut deck = Vec::with_capacity(DECK);
    deck.extend(std::iter::repeat_n(Kind::Read, count(workload.reads)));
    deck.extend(std::iter::repeat_n(Kind::Create, count(workload.creates)));
    deck.extend(std::iter::repeat_n(Kind::Multi, count(workload.multis)));
    deck.resize(DECK, Kind::Set);
    for i in (1..deck.len()).rev() {
        let j = (rng.gen::<f64>() * (i + 1) as f64) as usize;
        deck.swap(i, j.min(i));
    }
    deck
}

/// One `set_data`/`multi` in this many is issued by an observer session.
const OBSERVER_EVERY: usize = 16;

/// Builds the plan. Every write session issues exactly one op, except
/// the observer sessions, which take every 16th `set_data`/`multi` and
/// only touch keys of their own shard group: their writes then never
/// wait on a predecessor held in another group's lane (whose poll
/// sleeps wall time in a serial driver). Reads carry no session.
pub fn plan(workload: &Workload, ops: usize, seed: u64) -> Plan {
    let mut zipf = SeededZipf::with_theta(workload.nodes, workload.theta, seed);
    let mut mix = SmallRng::seed_from_u64(seed ^ 0xDEAD_BEEF);
    let mut planned = Vec::with_capacity(ops);
    let mut next_session = workload.observers;
    let mut updates = 0usize;
    let mut deck = Vec::new();
    for _ in 0..ops {
        if deck.is_empty() {
            deck = shuffled_deck(workload, &mut mix);
        }
        let action = match deck.pop().expect("refilled above") {
            Kind::Read => {
                planned.push(PlannedOp {
                    session: 0,
                    action: Action::Read(zipf.next_key()),
                });
                continue;
            }
            Kind::Create => Action::Create,
            Kind::Multi => Action::Multi(zipf.next_key()),
            Kind::Set => Action::Set(zipf.next_key()),
        };
        let observer = workload.observers > 0 && action != Action::Create && {
            updates += 1;
            updates % OBSERVER_EVERY == 1
        };
        if observer {
            let session = (updates / OBSERVER_EVERY) % workload.observers;
            let group = session % workload.groups;
            let key = loop {
                let key = zipf.next_key();
                if group_of(&workload.key_path(key), workload.groups) == group {
                    break key;
                }
            };
            let action = match action {
                Action::Multi(_) => Action::Multi(key),
                _ => Action::Set(key),
            };
            planned.push(PlannedOp { session, action });
        } else {
            planned.push(PlannedOp {
                session: next_session,
                action,
            });
            next_session += 1;
        }
    }
    Plan {
        ops: planned,
        sessions: next_session,
    }
}
