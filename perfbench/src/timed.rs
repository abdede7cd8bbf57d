//! [`Timed`]: a [`DtmProtocol`] + [`SimHosted`] wrapper that measures
//! every call a workload loop makes into a protocol, from outside it.
//!
//! The unchanged workload loops (`run_bank`, `run_open_loop`) take the wrapper
//! in place of the protocol. Each handle records its begin instant, so
//! commit latency spans every retry. With tracing on, each
//! `read`/`write`/`commit`/`restart` call also records its virtual-time
//! span and the host wall time spent inside its polls.
//!
//! The loops open their measurement window by calling
//! [`DtmProtocol::reset_protocol_stats`]; the wrapper opens its
//! [`Recorder`] there too, and the caller closes it with [`Timed::close`].

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::time::Instant;

use qrdtm_core::{Abort, DtmProtocol, ObjVal, ObjectId, ProtocolStats, SimHosted};
use qrdtm_sim::{NodeId, Sim, SimDuration, SimTime};

use crate::alloc;
use crate::family::{Family, Lifetime};

const READ: usize = 0;
const WRITE: usize = 1;
const COMMIT: usize = 2;
const RESTART: usize = 3;

/// What one measurement window observed. Only commits and calls inside
/// the window count; handles begun before it still carry full spans.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Virtual and wall instant the window opened.
    pub opened: (SimTime, Option<Instant>),
    /// Wall instant the window closed.
    pub closed_wall: Option<Instant>,
    /// Never-reset counters at the opening.
    pub base: Lifetime,
    /// Virtual length of the window (for its quarters).
    pub window: SimDuration,
    /// Whether the window is traced.
    pub trace: bool,
    /// Transactions begun in the window.
    pub begins: u64,
    /// Restarts (aborted attempts) in the window.
    pub restarts: u64,
    /// Commits in the window.
    pub commits: u64,
    /// Virtual latency of each commit, ns: begin (open loop: arrival) to
    /// commit.
    pub latency_ns: Vec<u64>,
    /// Traced: virtual ns spent in calls of each kind (read, write,
    /// commit, restart).
    pub span_ns: [u64; 4],
    /// Traced: virtual duration of each read call, ns.
    pub read_ns: Vec<u64>,
    /// Traced: virtual duration of each commit call, ns.
    pub commit_ns: Vec<u64>,
    /// Traced, open loop: arrival to `begin`, ns.
    pub queue_wait_ns: Vec<u64>,
    /// Traced: commits whose spans did not sum to their latency.
    pub span_mismatches: u64,
    /// Traced: commits per virtual quarter of the window.
    pub quarter_commits: [u64; 4],
    /// Traced: wall instant of the first commit in each quarter.
    pub quarter_wall: [Option<Instant>; 4],
    /// Open loop: arrivals that contradict their begin instant, and
    /// commits with no arrival.
    pub arrival_violations: u64,
    /// Handles that reported a second successful commit.
    pub double_commits: u64,
    /// Traced: allocations and bytes inside the window.
    pub allocs: (u64, u64),
}

impl Recorder {
    /// A window opening at virtual instant `now`.
    pub fn open(now: SimTime, base: Lifetime, window: SimDuration, trace: bool) -> Recorder {
        if trace {
            alloc::start();
        }
        Recorder {
            opened: (now, Some(Instant::now())),
            base,
            window,
            trace,
            ..Recorder::default()
        }
    }

    /// Close the window.
    pub fn close(&mut self) {
        self.closed_wall = Some(Instant::now());
        if self.trace {
            self.allocs = alloc::stop();
        }
    }

    /// Count a commit at `now` whose latency runs from `from`.
    pub fn commit(&mut self, now: SimTime, from: SimTime) {
        self.commits += 1;
        self.latency_ns.push(now.saturating_since(from).as_nanos());
        if self.trace {
            let into = u128::from(now.saturating_since(self.opened.0).as_nanos());
            let window = u128::from(self.window.as_nanos().max(1));
            let q = (into * 4 / window).min(3) as usize;
            self.quarter_commits[q] += 1;
            if self.quarter_wall[q].is_none() {
                self.quarter_wall[q] = Some(Instant::now());
            }
        }
    }

    /// Fold the counts of another window into this one (its latencies,
    /// quarters and instants stay behind).
    pub fn absorb(&mut self, other: Recorder) {
        self.begins += other.begins;
        self.restarts += other.restarts;
        self.commits += other.commits;
        for (a, b) in self.span_ns.iter_mut().zip(other.span_ns) {
            *a += b;
        }
        self.read_ns.extend(other.read_ns);
        self.commit_ns.extend(other.commit_ns);
        self.queue_wait_ns.extend(other.queue_wait_ns);
        self.allocs.0 += other.allocs.0;
        self.allocs.1 += other.allocs.1;
    }

    /// Wall ns from the opening to the close.
    pub fn wall_ns(&self) -> u64 {
        let opened = self.opened.1.expect("window opened");
        let closed = self.closed_wall.expect("window closed");
        closed.duration_since(opened).as_nanos() as u64
    }

    /// Wall µs per commit in the window's last virtual quarter over its
    /// first (0 when a quarter saw no commit).
    pub fn wall_drift(&self) -> f64 {
        let q = &self.quarter_wall;
        let (Some(q0), Some(q1), Some(q3), Some(closed)) = (q[0], q[1], q[3], self.closed_wall)
        else {
            return 0.0;
        };
        let per = |from: Instant, to: Instant, commits: u64| {
            to.duration_since(from).as_nanos() as f64 / commits.max(1) as f64
        };
        let first = per(q0, q1, self.quarter_commits[0]);
        let last = per(q3, closed, self.quarter_commits[3]);
        if first == 0.0 {
            0.0
        } else {
            last / first
        }
    }
}

/// Run `fut`, adding the host wall time spent inside its polls to `acc`.
pub async fn wall_polls<F: Future>(fut: F, acc: &Cell<u64>) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    std::future::poll_fn(|cx| {
        let t = Instant::now();
        let r = fut.as_mut().poll(cx);
        acc.set(acc.get() + t.elapsed().as_nanos() as u64);
        r
    })
    .await
}

/// A protocol wrapped for measurement.
pub struct Timed<P> {
    inner: P,
    trace: bool,
    /// Virtual length of the loop's measurement window.
    window: SimDuration,
    /// Open loop: the loop arms `deadline = arrival + offset`.
    deadline_offset: Option<SimDuration>,
    rec: RefCell<Option<Recorder>>,
    /// Host wall ns inside polls of wrapped calls since the window opened.
    call_wall_ns: Cell<u64>,
    /// Transactions begun before [`Timed::park`] and not yet committed.
    live: Cell<u64>,
    /// Once set, transactions begun afterwards never make a call, so the
    /// cluster drains to a quiescent state.
    parked: Cell<bool>,
}

/// A wrapped transaction handle.
pub struct TimedTx<H> {
    inner: H,
    begun: SimTime,
    arrival: Option<SimTime>,
    spans: [u64; 4],
    committed: bool,
    parked: bool,
}

impl<P: Family> Timed<P> {
    /// Wrap `inner` for a workload loop whose window lasts `window`.
    pub fn new(inner: P, trace: bool, window: SimDuration) -> Self {
        Timed {
            inner,
            trace,
            window,
            deadline_offset: None,
            rec: RefCell::new(None),
            call_wall_ns: Cell::new(0),
            live: Cell::new(0),
            parked: Cell::new(false),
        }
    }

    /// Open-loop wrapper: arrival is recovered as `deadline - offset`.
    pub fn open_loop(inner: P, trace: bool, window: SimDuration, offset: SimDuration) -> Self {
        Timed {
            deadline_offset: Some(offset),
            ..Timed::new(inner, trace, window)
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Close the window and hand back what it recorded.
    pub fn close(&self) -> Recorder {
        let mut rec = self.rec.take().expect("window closed before it opened");
        rec.close();
        rec
    }

    /// Host wall ns inside polls of wrapped calls since the window opened.
    pub fn call_wall_ns(&self) -> u64 {
        self.call_wall_ns.get()
    }

    /// Stop transactions begun from now on from issuing calls.
    pub fn park(&self) {
        self.parked.set(true);
    }

    /// Transactions begun before [`Timed::park`] and not yet committed.
    pub fn live(&self) -> u64 {
        self.live.get()
    }

    fn now(&self) -> SimTime {
        self.inner.sim().now()
    }

    async fn wall<F: Future>(&self, fut: F) -> F::Output {
        if self.trace {
            wall_polls(fut, &self.call_wall_ns).await
        } else {
            fut.await
        }
    }

    fn start(&self) -> Option<SimTime> {
        self.trace.then(|| self.now())
    }

    /// Close a traced call of `kind` that started at `t0`.
    fn span(&self, tx: &mut TimedTx<P::TxHandle>, kind: usize, t0: Option<SimTime>) {
        let Some(t0) = t0 else { return };
        let d = self.now().saturating_since(t0).as_nanos();
        tx.spans[kind] += d;
        if let Some(rec) = self.rec.borrow_mut().as_mut() {
            rec.span_ns[kind] += d;
            match kind {
                READ => rec.read_ns.push(d),
                COMMIT => rec.commit_ns.push(d),
                _ => {}
            }
        }
    }

    async fn park_if_late(&self, tx: &TimedTx<P::TxHandle>) {
        if tx.parked {
            std::future::pending::<()>().await;
        }
    }

    fn committed(&self, tx: &mut TimedTx<P::TxHandle>) {
        let now = self.now();
        let mut rec = self.rec.borrow_mut();
        if tx.committed {
            if let Some(rec) = rec.as_mut() {
                rec.double_commits += 1;
            }
            return;
        }
        tx.committed = true;
        self.live.set(self.live.get() - 1);
        let Some(rec) = rec.as_mut() else { return };
        let from = match (self.deadline_offset, tx.arrival) {
            (None, _) => tx.begun,
            (Some(_), Some(arrival)) => arrival,
            (Some(_), None) => {
                rec.arrival_violations += 1;
                tx.begun
            }
        };
        rec.commit(now, from);
        if self.trace && tx.spans.iter().sum::<u64>() != now.saturating_since(tx.begun).as_nanos() {
            rec.span_mismatches += 1;
        }
    }
}

impl<P: Family> DtmProtocol for Timed<P> {
    type TxHandle = TimedTx<P::TxHandle>;

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }

    fn preload(&self, oid: ObjectId, val: ObjVal) {
        self.inner.preload(oid, val);
    }

    fn begin(&self, node: NodeId) -> Self::TxHandle {
        let parked = self.parked.get();
        if !parked {
            self.live.set(self.live.get() + 1);
            if let Some(rec) = self.rec.borrow_mut().as_mut() {
                rec.begins += 1;
            }
        }
        TimedTx {
            inner: self.inner.begin(node),
            begun: self.now(),
            arrival: None,
            spans: [0; 4],
            committed: false,
            parked,
        }
    }

    async fn read(&self, tx: &mut Self::TxHandle, oid: ObjectId) -> Result<ObjVal, Abort> {
        self.park_if_late(tx).await;
        let t0 = self.start();
        let r = self.wall(self.inner.read(&mut tx.inner, oid)).await;
        self.span(tx, READ, t0);
        r
    }

    async fn write(
        &self,
        tx: &mut Self::TxHandle,
        oid: ObjectId,
        val: ObjVal,
    ) -> Result<(), Abort> {
        self.park_if_late(tx).await;
        let t0 = self.start();
        let r = self.wall(self.inner.write(&mut tx.inner, oid, val)).await;
        self.span(tx, WRITE, t0);
        r
    }

    async fn commit(&self, tx: &mut Self::TxHandle) -> Result<(), Abort> {
        self.park_if_late(tx).await;
        let t0 = self.start();
        let r = self.wall(self.inner.commit(&mut tx.inner)).await;
        self.span(tx, COMMIT, t0);
        if r.is_ok() {
            self.committed(tx);
        }
        r
    }

    async fn restart(&self, tx: &mut Self::TxHandle, abort: Abort) {
        let t0 = self.start();
        self.wall(self.inner.restart(&mut tx.inner, abort)).await;
        self.span(tx, RESTART, t0);
        if let Some(rec) = self.rec.borrow_mut().as_mut() {
            rec.restarts += 1;
        }
    }

    fn set_deadline(&self, tx: &mut Self::TxHandle, deadline: Option<SimTime>) {
        self.inner.set_deadline(&mut tx.inner, deadline);
        let (Some(offset), Some(deadline)) = (self.deadline_offset, deadline) else {
            return;
        };
        let now = self.now();
        let arrival = SimTime(deadline.as_nanos().saturating_sub(offset.as_nanos()));
        tx.arrival = Some(arrival);
        if let Some(rec) = self.rec.borrow_mut().as_mut() {
            // The loop arms the deadline in the poll that began the
            // handle, and never begins a request whose deadline passed.
            if now != tx.begun || arrival > now || now > deadline {
                rec.arrival_violations += 1;
            }
            if self.trace {
                rec.queue_wait_ns
                    .push(now.saturating_since(arrival).as_nanos());
            }
        }
    }

    fn protocol_stats(&self) -> ProtocolStats {
        self.inner.protocol_stats()
    }

    fn reset_protocol_stats(&self) {
        self.inner.reset_protocol_stats();
        self.call_wall_ns.set(0);
        let rec = Recorder::open(self.now(), self.inner.lifetime(), self.window, self.trace);
        *self.rec.borrow_mut() = Some(rec);
    }
}

impl<P: Family> SimHosted for Timed<P> {
    type Msg = P::Msg;

    fn sim(&self) -> &Sim<P::Msg> {
        self.inner.sim()
    }
}
