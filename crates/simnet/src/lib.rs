//! Deterministic discrete-event network simulator.
//!
//! The DSN 2018 paper evaluates its ordering service on Amazon EC2 with
//! consensus nodes on four continents. We do not have that testbed, so
//! the geo-distributed experiments (paper Figs. 8 and 9) run on this
//! simulator instead: protocol logic executes unchanged (the consensus
//! crate is sans-io), while message delivery times come from a measured
//! inter-region latency matrix plus a bandwidth and jitter model.
//!
//! Everything is deterministic given a seed, which turns latency
//! experiments into reproducible unit tests.
//!
//! # Examples
//!
//! ```
//! use hlf_simnet::{Actor, Ctx, LatencyModel, SimMessage, SimTime, Simulation};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl SimMessage for Ping {
//!     fn wire_size(&self) -> usize { 16 }
//! }
//!
//! struct Echo;
//! impl Actor<Ping> for Echo {
//!     fn on_message(&mut self, from: usize, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
//!         if msg.0 < 3 {
//!             ctx.send(from, Ping(msg.0 + 1));
//!         }
//!     }
//!     fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, Ping>) {}
//! }
//!
//! struct Starter;
//! impl Actor<Ping> for Starter {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
//!         ctx.send(1, Ping(0));
//!     }
//!     fn on_message(&mut self, from: usize, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
//!         if msg.0 < 3 {
//!             ctx.send(from, Ping(msg.0 + 1));
//!         }
//!     }
//!     fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, Ping>) {}
//! }
//!
//! let mut sim = Simulation::new(LatencyModel::constant(SimTime::from_millis(10)), 42);
//! sim.add_actor(Box::new(Starter));
//! sim.add_actor(Box::new(Echo));
//! sim.run();
//! assert_eq!(sim.now(), SimTime::from_millis(40)); // 4 one-way hops
//! ```

// Panic, `unsafe` and stdout discipline of this library target (DESIGN.md
// §7); an exception is an `#[expect(clippy::.., reason = "..")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::undocumented_unsafe_blocks,
    clippy::print_stdout,
    clippy::allow_attributes_without_reason
)]

pub mod regions;
pub mod rng;

pub use regions::{Region, RegionMatrix};
pub use rng::{for_each_case, SimRng};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Simulated time in microseconds since the start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from whole microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Builds a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000)
    }

    /// Builds a time from whole seconds.
    pub const fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000)
    }

    /// The value in microseconds.
    pub const fn as_micros(&self) -> u64 {
        self.0
    }

    /// The value in (truncated) milliseconds.
    pub const fn as_millis(&self) -> u64 {
        self.0 / 1_000
    }

    /// The value in fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating addition.
    pub fn saturating_add(&self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::ops::Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

/// Messages routed by the simulator must report their wire size so the
/// bandwidth model can charge serialization/transmission time.
pub trait SimMessage: Clone {
    /// Approximate encoded size in bytes.
    fn wire_size(&self) -> usize;
}

/// How long a message takes from `from` to `to`.
pub struct LatencyModel {
    /// Base one-way propagation delay per ordered pair.
    delay: Box<dyn Fn(usize, usize) -> SimTime + Send>,
    /// Available bandwidth in bytes/sec used to charge size-dependent
    /// transmission time (0 disables the charge).
    bandwidth_bps: u64,
    /// Uniform jitter bound added to each delivery.
    jitter: SimTime,
    /// Loopback sends still pay this small local cost.
    local_delay: SimTime,
}

impl fmt::Debug for LatencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyModel")
            .field("bandwidth_bps", &self.bandwidth_bps)
            .field("jitter", &self.jitter)
            .finish()
    }
}

impl LatencyModel {
    /// Same constant delay between every distinct pair of nodes.
    pub fn constant(delay: SimTime) -> LatencyModel {
        LatencyModel {
            delay: Box::new(move |_, _| delay),
            bandwidth_bps: 0,
            jitter: SimTime::ZERO,
            local_delay: SimTime::from_micros(20),
        }
    }

    /// Delay given by an arbitrary function of `(from, to)`.
    pub fn from_fn<F>(delay: F) -> LatencyModel
    where
        F: Fn(usize, usize) -> SimTime + Send + 'static,
    {
        LatencyModel {
            delay: Box::new(delay),
            bandwidth_bps: 0,
            jitter: SimTime::ZERO,
            local_delay: SimTime::from_micros(20),
        }
    }

    /// Adds a bandwidth charge of `size / bandwidth` per message.
    pub fn with_bandwidth_bps(mut self, bps: u64) -> LatencyModel {
        self.bandwidth_bps = bps;
        self
    }

    /// Adds uniform random jitter in `[0, bound)` to every delivery.
    pub fn with_jitter(mut self, bound: SimTime) -> LatencyModel {
        self.jitter = bound;
        self
    }

    fn delivery_delay(&self, from: usize, to: usize, size: usize, rng: &mut SimRng) -> SimTime {
        let base = if from == to {
            self.local_delay
        } else {
            (self.delay)(from, to)
        };
        let tx = (size as u64)
            .saturating_mul(1_000_000)
            .checked_div(self.bandwidth_bps)
            .map(SimTime::from_micros)
            .unwrap_or(SimTime::ZERO);
        let jitter = if self.jitter == SimTime::ZERO {
            SimTime::ZERO
        } else {
            SimTime::from_micros(rng.next_range(self.jitter.as_micros()))
        };
        base + tx + jitter
    }
}

/// A recorded measurement emitted by an actor during the run.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name, e.g. `"commit_latency_ms"`.
    pub name: &'static str,
    /// Emitting node.
    pub node: usize,
    /// Emission time.
    pub at: SimTime,
    /// Metric value.
    pub value: f64,
}

/// Side-effect sink handed to actors while they execute.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: usize,
    node_count: usize,
    effects: &'a mut Vec<Effect<M>>,
    samples: &'a mut Vec<Sample>,
    rng: &'a mut SimRng,
}

enum Effect<M> {
    Send { to: usize, msg: M },
    Timer { delay: SimTime, token: u64 },
    Halt,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Index of the executing actor.
    pub fn self_id(&self) -> usize {
        self.self_id
    }

    /// Total number of actors in the simulation.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Deterministic per-run random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Sends `msg` to actor `to` (delivery time set by the latency model).
    pub fn send(&mut self, to: usize, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Schedules a timer that fires on this actor after `delay`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.effects.push(Effect::Timer { delay, token });
    }

    /// Records a measurement sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push(Sample {
            name,
            node: self.self_id,
            at: self.now,
            value,
        });
    }

    /// Stops the simulation after the current event is processed.
    pub fn halt(&mut self) {
        self.effects.push(Effect::Halt);
    }
}

/// A simulated process.
///
/// Actors are purely event-driven: they react to startup, messages and
/// timers, and may send messages, set timers and record samples through
/// the [`Ctx`].
pub trait Actor<M> {
    /// Invoked once at time zero before any message flows.
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        let _ = ctx;
    }
    /// Invoked when a message from `from` is delivered.
    fn on_message(&mut self, from: usize, msg: M, ctx: &mut Ctx<'_, M>);
    /// Invoked when a timer set with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, M>);
}

#[derive(Debug)]
enum Payload<M> {
    Message { from: usize, msg: M },
    Timer { token: u64 },
}

struct QueuedEvent<M> {
    at: SimTime,
    seq: u64,
    to: usize,
    payload: Payload<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Tie-break equal timestamps by insertion order for determinism.
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Link-level fault injection: drops and one-directional blocks.
#[derive(Default)]
pub struct FaultPlan {
    /// Ordered pairs that silently drop every message.
    blocked: Vec<(usize, usize)>,
    /// Probability in `[0, 1]` that any message is dropped.
    drop_probability: f64,
    /// Nodes that are crashed from a given time onward (drop all I/O).
    crashes: Vec<(usize, SimTime)>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("blocked", &self.blocked)
            .field("drop_probability", &self.drop_probability)
            .field("crashes", &self.crashes)
            .finish()
    }
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Blocks all messages from `from` to `to`.
    pub fn block_link(mut self, from: usize, to: usize) -> FaultPlan {
        self.blocked.push((from, to));
        self
    }

    /// Drops every message with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn drop_probability(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
        self.drop_probability = p;
        self
    }

    /// Crashes `node` at time `at`: all later sends and deliveries
    /// involving it vanish and its timers stop firing.
    pub fn crash_at(mut self, node: usize, at: SimTime) -> FaultPlan {
        self.crashes.push((node, at));
        self
    }

    fn is_crashed(&self, node: usize, at: SimTime) -> bool {
        self.crashes.iter().any(|&(n, t)| n == node && at >= t)
    }

    fn drops(&self, from: usize, to: usize, at: SimTime, rng: &mut SimRng) -> bool {
        if self.blocked.contains(&(from, to)) {
            return true;
        }
        if self.is_crashed(from, at) || self.is_crashed(to, at) {
            return true;
        }
        self.drop_probability > 0.0 && rng.next_f64() < self.drop_probability
    }
}

/// The discrete-event simulation driver.
pub struct Simulation<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    queue: BinaryHeap<Reverse<QueuedEvent<M>>>,
    now: SimTime,
    seq: u64,
    latency: LatencyModel,
    faults: FaultPlan,
    rng: SimRng,
    samples: Vec<Sample>,
    events_processed: u64,
    halted: bool,
    /// Safety valve against runaway simulations.
    max_events: u64,
}

impl<M> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("actors", &self.actors.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<M: SimMessage> Simulation<M> {
    /// Creates a simulation with the given latency model and RNG seed.
    pub fn new(latency: LatencyModel, seed: u64) -> Simulation<M> {
        Simulation {
            actors: Vec::new(),
            queue: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            latency,
            faults: FaultPlan::none(),
            rng: SimRng::new(seed),
            samples: Vec::new(),
            events_processed: 0,
            halted: false,
            max_events: 200_000_000,
        }
    }

    /// Installs a fault plan.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Limits the total number of events processed (default 2e8).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Adds an actor; returns its index.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> usize {
        self.actors.push(actor);
        self.actors.len() - 1
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Samples recorded by actors so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Immutable access to an actor (for post-run inspection).
    #[expect(clippy::indexing_slicing, reason = "an out-of-range actor index is harness misuse and must fail the test loudly")]
    pub fn actor(&self, index: usize) -> &dyn Actor<M> {
        self.actors[index].as_ref()
    }

    fn start_if_needed(&mut self) {
        if self.events_processed == 0 && self.now == SimTime::ZERO && !self.halted {
            for i in 0..self.actors.len() {
                self.dispatch(i, None);
            }
        }
    }

    /// Runs until the event queue is empty, a halt is requested, or the
    /// event budget is exhausted.
    pub fn run(&mut self) {
        self.run_until(SimTime::from_micros(u64::MAX));
    }

    /// Runs until simulated time would exceed `deadline` (events at the
    /// deadline itself still execute).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_if_needed();
        while !self.halted && self.events_processed < self.max_events {
            let Some(Reverse(event)) = self.queue.pop() else {
                break;
            };
            if event.at > deadline {
                // Put it back for a later run_until call.
                self.queue.push(Reverse(event));
                self.now = deadline;
                break;
            }
            debug_assert!(event.at >= self.now, "time went backwards");
            self.now = event.at;
            let to = event.to;
            if self.faults.is_crashed(to, self.now) {
                continue;
            }
            self.events_processed += 1;
            self.dispatch(to, Some(event.payload));
        }
    }

    fn dispatch(&mut self, actor_index: usize, payload: Option<Payload<M>>) {
        let mut effects = Vec::new();
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: actor_index,
                node_count: self.actors.len(),
                effects: &mut effects,
                samples: &mut self.samples,
                rng: &mut self.rng,
            };
            #[expect(clippy::indexing_slicing, reason = "the event queue only holds indices of registered actors")]
            let actor = &mut self.actors[actor_index];
            match payload {
                None => actor.on_start(&mut ctx),
                Some(Payload::Message { from, msg }) => actor.on_message(from, msg, &mut ctx),
                Some(Payload::Timer { token }) => actor.on_timer(token, &mut ctx),
            }
        }
        for effect in effects {
            match effect {
                #[expect(clippy::panic, reason = "actor misuse must fail the simulation loudly")]
                Effect::Send { to, msg } => {
                    if to >= self.actors.len() {
                        panic!("send to unknown actor {to}");
                    }
                    if self.faults.drops(actor_index, to, self.now, &mut self.rng) {
                        continue;
                    }
                    let delay = self.latency.delivery_delay(
                        actor_index,
                        to,
                        msg.wire_size(),
                        &mut self.rng,
                    );
                    self.seq += 1;
                    self.queue.push(Reverse(QueuedEvent {
                        at: self.now + delay,
                        seq: self.seq,
                        to,
                        payload: Payload::Message {
                            from: actor_index,
                            msg,
                        },
                    }));
                }
                Effect::Timer { delay, token } => {
                    self.seq += 1;
                    self.queue.push(Reverse(QueuedEvent {
                        at: self.now + delay,
                        seq: self.seq,
                        to: actor_index,
                        payload: Payload::Timer { token },
                    }));
                }
                Effect::Halt => self.halted = true,
            }
        }
    }
}

/// Computes a percentile (0-100) of `values` using nearest-rank on a
/// sorted copy. Returns `None` for empty input.
#[expect(clippy::expect_used, clippy::indexing_slicing, reason = "samples are finite durations (no NaN), and the rank is clamped to `len - 1` after the empty check")]
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Num(u64);
    impl SimMessage for Num {
        fn wire_size(&self) -> usize {
            8
        }
    }

    /// Relays every message to the next node in a ring, `hops` times.
    struct Ring {
        hops: u64,
        received: Vec<u64>,
    }

    impl Actor<Num> for Ring {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Num>) {
            if ctx.self_id() == 0 {
                ctx.send(1 % ctx.node_count(), Num(0));
            }
        }
        fn on_message(&mut self, _from: usize, msg: Num, ctx: &mut Ctx<'_, Num>) {
            self.received.push(msg.0);
            ctx.sample("hop", msg.0 as f64);
            if msg.0 < self.hops {
                let next = (ctx.self_id() + 1) % ctx.node_count();
                ctx.send(next, Num(msg.0 + 1));
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, Num>) {}
    }

    fn ring_sim(n: usize, hops: u64, delay_ms: u64) -> Simulation<Num> {
        let mut sim = Simulation::new(
            LatencyModel::constant(SimTime::from_millis(delay_ms)),
            7,
        );
        for _ in 0..n {
            sim.add_actor(Box::new(Ring {
                hops,
                received: Vec::new(),
            }));
        }
        sim
    }

    #[test]
    fn ring_advances_time_deterministically() {
        let mut sim = ring_sim(3, 6, 5);
        sim.run();
        // 7 messages delivered (hop values 0..=6), each taking 5ms.
        assert_eq!(sim.now(), SimTime::from_millis(35));
        assert_eq!(sim.samples().len(), 7);
        assert_eq!(sim.events_processed(), 7);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed| {
            let mut sim = ring_sim(4, 10, 3);
            sim.rng = SimRng::new(seed);
            sim.run();
            (sim.now(), sim.samples().to_vec())
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut sim = ring_sim(2, 9, 10);
        sim.run_until(SimTime::from_millis(35));
        let mid_events = sim.events_processed();
        assert!(mid_events > 0 && mid_events < 10);
        assert_eq!(sim.now(), SimTime::from_millis(35));
        sim.run();
        assert_eq!(sim.events_processed(), 10);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            fired: Vec<u64>,
        }
        impl Actor<Num> for TimerActor {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Num>) {
                ctx.set_timer(SimTime::from_millis(30), 3);
                ctx.set_timer(SimTime::from_millis(10), 1);
                ctx.set_timer(SimTime::from_millis(20), 2);
            }
            fn on_message(&mut self, _f: usize, _m: Num, _c: &mut Ctx<'_, Num>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Num>) {
                self.fired.push(token);
                ctx.sample("timer", token as f64);
            }
        }
        let mut sim: Simulation<Num> =
            Simulation::new(LatencyModel::constant(SimTime::from_millis(1)), 0);
        sim.add_actor(Box::new(TimerActor { fired: Vec::new() }));
        sim.run();
        let order: Vec<f64> = sim.samples().iter().map(|s| s.value).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn blocked_links_drop_messages() {
        let mut sim = ring_sim(2, 9, 10);
        sim.set_faults(FaultPlan::none().block_link(0, 1));
        sim.run();
        assert_eq!(sim.events_processed(), 0);
    }

    #[test]
    fn crashed_nodes_stop_participating() {
        let mut sim = ring_sim(2, 100, 10);
        sim.set_faults(FaultPlan::none().crash_at(1, SimTime::from_millis(25)));
        sim.run();
        // Node 1 receives the 10ms message, node 0 the 20ms one; the
        // 30ms delivery to node 1 is dropped by the crash.
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn bandwidth_charges_size() {
        let model = LatencyModel::constant(SimTime::from_millis(1)).with_bandwidth_bps(1_000_000);
        let mut rng = SimRng::new(0);
        let small = model.delivery_delay(0, 1, 100, &mut rng);
        let large = model.delivery_delay(0, 1, 1_000_000, &mut rng);
        assert_eq!(small, SimTime::from_micros(1_100));
        assert_eq!(large, SimTime::from_micros(1_001_000));
    }

    #[test]
    fn jitter_is_bounded_and_seed_dependent() {
        let model = LatencyModel::constant(SimTime::from_millis(10))
            .with_jitter(SimTime::from_millis(2));
        let mut rng = SimRng::new(9);
        for _ in 0..100 {
            let d = model.delivery_delay(0, 1, 0, &mut rng);
            assert!(d >= SimTime::from_millis(10) && d < SimTime::from_millis(12));
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), Some(50.0));
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&values, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn event_budget_stops_runaway() {
        // Two actors ping-pong forever; the budget must stop them.
        struct Forever;
        impl Actor<Num> for Forever {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Num>) {
                if ctx.self_id() == 0 {
                    ctx.send(1, Num(0));
                }
            }
            fn on_message(&mut self, from: usize, msg: Num, ctx: &mut Ctx<'_, Num>) {
                ctx.send(from, Num(msg.0 + 1));
            }
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, Num>) {}
        }
        let mut sim: Simulation<Num> =
            Simulation::new(LatencyModel::constant(SimTime::from_millis(1)), 0);
        sim.add_actor(Box::new(Forever));
        sim.add_actor(Box::new(Forever));
        sim.set_max_events(1000);
        sim.run();
        assert_eq!(sim.events_processed(), 1000);
    }

    #[test]
    fn halt_stops_immediately() {
        struct Halter;
        impl Actor<Num> for Halter {
            fn on_start(&mut self, ctx: &mut Ctx<'_, Num>) {
                ctx.send(0, Num(1));
            }
            fn on_message(&mut self, _f: usize, _m: Num, ctx: &mut Ctx<'_, Num>) {
                ctx.halt();
                ctx.send(0, Num(2));
            }
            fn on_timer(&mut self, _t: u64, _c: &mut Ctx<'_, Num>) {}
        }
        let mut sim: Simulation<Num> =
            Simulation::new(LatencyModel::constant(SimTime::from_millis(1)), 0);
        sim.add_actor(Box::new(Halter));
        sim.run();
        assert_eq!(sim.events_processed(), 1);
    }
}
