//! Load generation: the closed-loop and open-loop drivers, and the
//! per-request bookkeeping both share.
//!
//! Latency is client-observed: from the `submit` call (from the due
//! time on the open loop) to the return of `wait`. Load comes from this
//! one process, with at most two generator threads.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Duration;

use crate::gen::Op;
use crate::layers::{Answer, Done, Svc, Ticket};
use crate::trace::{Tracer, NONE};

/// Request classes latency is reported by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
    CrossJoin = 2,
    ProbeJoin = 3,
}

/// Time slices a timed pass is cut into; throughput is the median of
/// the slices' rates, so one stall does not move it.
pub const SLICES: usize = 10;

pub fn class_of(op: &Op) -> Class {
    match op {
        Op::Range(_) | Op::Knn(..) => Class::Read,
        Op::Insert(_) | Op::Delete(_) => Class::Write,
        Op::CrossJoin(..) => Class::CrossJoin,
        Op::ProbeJoin(_) => Class::ProbeJoin,
    }
}

/// The source of a workload's requests and the sink of its answers.
/// `done` is called once per request, in submission order, and says
/// whether the answer had the shape the request calls for.
pub trait Client {
    /// The next request and the dataset (by workload index) it targets.
    fn next(&mut self) -> (usize, Op);
    fn done(&mut self, op: Op, answer: Answer) -> bool;
}

/// Everything one pass over the service measured.
#[derive(Clone, Default)]
pub struct Recorder {
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// From the first submit to the last completion, summed over the
    /// passes merged in.
    pub elapsed_ns: u64,
    first_ns: Option<u64>,
    last_ns: u64,
    /// Client-observed latency of every completed request, in
    /// completion order, and the class of each.
    pub latency_ns: Vec<u64>,
    pub class: Vec<Class>,
    /// Completions per time slice of a timed pass ([`SLICES`] slices of
    /// equal length; completions drained after the deadline are left
    /// out). Empty for passes stopped by request count.
    pub slice_done: Vec<u64>,
    slice_ns: u64,
    /// Whether to keep the per-request breakdown below (the traced run
    /// does; the untraced run's memory must not grow with throughput
    /// more than it has to, since peak RSS is one of its metrics).
    pub detail: bool,
    /// Per-request breakdown (all classes): the `submit` call, the
    /// service's queued and serviced times, and the remainder — what
    /// the client saw that the service did not account for (wake-up and
    /// return; on the open loop also how late the request was sent).
    /// The four add up to the request's latency.
    pub submit_ns: Vec<u64>,
    pub queued_ns: Vec<u64>,
    pub serviced_ns: Vec<u64>,
    pub respond_ns: Vec<u64>,
    /// Open loop only: how long after its due time each request was sent.
    pub late_ns: Vec<u64>,
}

impl Recorder {
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_ns as f64 / 1e9
    }

    /// Cut the coming `duration` into [`SLICES`] slices.
    pub fn slice(&mut self, duration: Duration) {
        self.slice_ns = (duration.as_nanos() as u64 / SLICES as u64).max(1);
        self.slice_done = vec![0; SLICES];
    }

    fn close(mut self) -> Self {
        self.elapsed_ns = self.first_ns.map_or(0, |first| self.last_ns - first);
        self
    }

    pub fn throughput(&self) -> f64 {
        self.completed as f64 / self.elapsed_s().max(1e-9)
    }

    /// Latencies of one class.
    pub fn latencies_of(&self, class: Class) -> Vec<u64> {
        self.latency_ns
            .iter()
            .zip(&self.class)
            .filter(|(_, c)| **c == class)
            .map(|(l, _)| *l)
            .collect()
    }

    /// Completions per second in each time slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slice_done
            .iter()
            .map(|&n| n as f64 / (self.slice_ns as f64 / 1e9))
            .collect()
    }

    pub fn merge(&mut self, other: Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.elapsed_ns += other.elapsed_ns;
        self.latency_ns.extend(other.latency_ns);
        self.class.extend(other.class);
        self.slice_done.extend(other.slice_done);
        self.slice_ns = other.slice_ns;
        self.submit_ns.extend(other.submit_ns);
        self.queued_ns.extend(other.queued_ns);
        self.serviced_ns.extend(other.serviced_ns);
        self.respond_ns.extend(other.respond_ns);
        self.late_ns.extend(other.late_ns);
    }
}

/// A request in flight.
struct Flight {
    ticket: Option<Ticket>,
    op: Op,
    request: u64,
    /// When the request was due (= `sent_ns` on the closed loop).
    due_ns: u64,
    /// Around the `submit` call.
    sent_ns: u64,
    admitted_ns: u64,
}

fn send(
    svc: &Svc,
    ds: usize,
    op: Op,
    request: u64,
    due_ns: Option<u64>,
    tracer: &Tracer,
) -> Flight {
    let sent_ns = tracer.now();
    let ticket = svc.submit(ds, &op);
    let admitted_ns = tracer.now();
    Flight {
        ticket,
        op,
        request,
        due_ns: due_ns.unwrap_or(sent_ns),
        sent_ns,
        admitted_ns,
    }
}

/// Wait for `flight`, book it, and hand the answer to the client.
fn finish<C: Client>(flight: Flight, client: &mut C, rec: &mut Recorder, tracer: &mut Tracer) {
    let done: Option<Done> = flight.ticket.and_then(Ticket::wait);
    let back_ns = tracer.now();
    rec.attempted += 1;
    rec.first_ns.get_or_insert(flight.sent_ns);
    rec.last_ns = back_ns;
    let class = class_of(&flight.op);
    let Some(done) = done else {
        rec.failed += 1;
        return;
    };
    let latency = back_ns - flight.due_ns;
    rec.completed += 1;
    rec.latency_ns.push(latency);
    rec.class.push(class);
    if let Some(first) = rec.first_ns.filter(|_| rec.slice_ns > 0) {
        if let Some(slot) = rec
            .slice_done
            .get_mut(((back_ns - first) / rec.slice_ns) as usize)
        {
            *slot += 1;
        }
    }
    if rec.detail {
        let submit = flight.admitted_ns - flight.sent_ns;
        let respond = latency.saturating_sub(submit + done.queued_ns + done.serviced_ns);
        rec.submit_ns.push(submit);
        rec.queued_ns.push(done.queued_ns);
        rec.serviced_ns.push(done.serviced_ns);
        rec.respond_ns.push(respond);
    }

    let root = tracer.push(
        "client.request",
        flight.due_ns,
        back_ns,
        NONE,
        flight.request,
    );
    if root != NONE {
        let queued_end = flight.admitted_ns + done.queued_ns;
        let serviced_end = (queued_end + done.serviced_ns).min(back_ns);
        tracer.push(
            "client.submit",
            flight.sent_ns,
            flight.admitted_ns,
            root,
            flight.request,
        );
        tracer.push(
            "serve.queued",
            flight.admitted_ns,
            queued_end.min(back_ns),
            root,
            flight.request,
        );
        tracer.push(
            "serve.serviced",
            queued_end.min(back_ns),
            serviced_end,
            root,
            flight.request,
        );
        tracer.push(
            "client.wait_return",
            serviced_end,
            back_ns,
            root,
            flight.request,
        );
    }
    let ok = !matches!(done.answer, Answer::Failed) && client.done(flight.op, done.answer);
    if !ok {
        rec.failed += 1;
    }
}

/// When a closed-loop pass stops sending.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    After(Duration),
    Requests(u64),
}

/// Closed loop, zero think time: keep `window` requests in flight, wait
/// for the oldest, send the next. In-flight requests are drained (and
/// counted) once the stop condition is met.
pub fn closed_loop<C: Client>(
    svc: &Svc,
    client: &mut C,
    window: usize,
    stop: Stop,
    request_base: u64,
    detail: bool,
    tracer: &mut Tracer,
) -> Recorder {
    let mut rec = Recorder {
        detail,
        ..Recorder::default()
    };
    if let Stop::After(d) = stop {
        rec.slice(d);
    }
    let mut flights: VecDeque<Flight> = VecDeque::with_capacity(window);
    let start = tracer.now();
    let mut sent = 0u64;
    loop {
        let more = match stop {
            Stop::After(d) => tracer.now() - start < d.as_nanos() as u64,
            Stop::Requests(n) => sent < n,
        };
        if !more {
            break;
        }
        if flights.len() == window {
            let oldest = flights.pop_front().expect("window is at least one");
            finish(oldest, client, &mut rec, tracer);
        }
        let (ds, op) = client.next();
        flights.push_back(send(svc, ds, op, request_base + sent, None, tracer));
        sent += 1;
    }
    for flight in flights {
        finish(flight, client, &mut rec, tracer);
    }
    rec.close()
}

/// The open-loop sender sleeps until this close to a due time, then
/// spins: a sleep overshoots by tens of microseconds.
const SPIN_BELOW_NS: u64 = 150_000;

/// Open loop: each `(due_ns, dataset, op)` of `schedule` is sent at its
/// due time (relative to the moment this is called) whether or not
/// earlier ones have been answered; a second thread waits for the
/// answers in order. Each request is timed from its due time.
pub fn open_loop<C: Client>(
    svc: &Svc,
    client: &mut C,
    schedule: Vec<(u64, usize, Op)>,
    duration: Duration,
    request_base: u64,
    detail: bool,
    tracer: &mut Tracer,
) -> Recorder {
    let mut rec = Recorder {
        detail,
        ..Recorder::default()
    };
    rec.slice(duration);
    let (tx, rx) = mpsc::channel::<Flight>();
    let sender_clock = Tracer::new(tracer.epoch(), false);
    let base = tracer.now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, (due_ns, ds, op)) in schedule.into_iter().enumerate() {
                let due = base + due_ns;
                loop {
                    let now = sender_clock.now();
                    if now >= due {
                        break;
                    }
                    let ahead = due - now;
                    if ahead > SPIN_BELOW_NS {
                        std::thread::sleep(Duration::from_nanos(ahead - SPIN_BELOW_NS));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let flight = send(
                    svc,
                    ds,
                    op,
                    request_base + i as u64,
                    Some(due),
                    &sender_clock,
                );
                if tx.send(flight).is_err() {
                    return;
                }
            }
        });
        for flight in rx {
            rec.late_ns.push(flight.sent_ns - flight.due_ns);
            finish(flight, client, &mut rec, tracer);
        }
    });
    rec.close()
}
