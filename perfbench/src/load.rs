//! Load generators against a running `InferenceServer`: a seeded Poisson
//! open loop and a fixed-window closed loop, both driven from the calling
//! thread, plus the reply check they apply to every response.
//!
//! Latency ends at the delivery instant [`ResponseHandle::wait_at`]
//! returns, so waiting on a handle late does not inflate it. The open loop
//! starts each latency at the request's *scheduled* send time, so a
//! generator stall is charged to the requests it delayed; the closed loop
//! starts it when `submit` is called.

use crate::trace::Tracer;
use bnn_serve::{InferenceServer, Reply, ResponseHandle};
use bnn_tensor::rng::{Rng, Xoshiro256StarStar};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A seeded arrival schedule: request `i` is due `due_ns[i]` after the
/// start and carries pool entry `pick[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Due times, nanoseconds after the start, ascending.
    pub due_ns: Vec<u64>,
    /// Pool index of each request.
    pub pick: Vec<u32>,
}

/// Poisson arrivals at `rate` per second over `seconds`, each carrying a
/// uniformly drawn pool entry; a pure function of its arguments.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64, pool_len: usize) -> Schedule {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let horizon = seconds * 1e9;
    let (mut due_ns, mut pick) = (Vec::new(), Vec::new());
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
        if t >= horizon {
            return Schedule { due_ns, pick };
        }
        due_ns.push(t as u64);
        pick.push((rng.next_u64() % pool_len as u64) as u32);
    }
}

/// The reply each pool entry must receive: its class probabilities (bit
/// for bit) and the exit it retires at.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Per pool entry: `(probs, exit_taken)`.
    pub replies: Vec<(Vec<f32>, usize)>,
}

impl Expected {
    /// Whether `reply` is exactly the expected answer for pool entry
    /// `pick`, served at full quality.
    pub fn matches(&self, pick: usize, reply: &Reply) -> bool {
        let (probs, exit) = &self.replies[pick];
        reply.exit_taken == *exit
            && reply.quality_tier == 0
            && reply.probs.len() == probs.len()
            && reply
                .probs
                .iter()
                .zip(probs)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// What one load run saw.
#[derive(Debug, Default)]
pub struct LoadRun {
    /// Requests the generator tried to submit.
    pub attempted: u64,
    /// Submissions the server refused.
    pub refused: u64,
    /// Accepted requests answered with an error.
    pub errored: u64,
    /// Replies that differ from the expected answer.
    pub wrong: u64,
    /// Latency of every `Ok` reply, seconds.
    pub latency_s: Vec<f64>,
    /// Replies that arrived inside the measured window.
    pub in_window: u64,
    /// Length of the measured window, seconds.
    pub window_s: f64,
    /// How late the generator submitted each request, seconds (open loop).
    pub lateness_s: Vec<f64>,
    /// Time inside `submit` per request, seconds (traced runs only).
    pub submit_s: Vec<f64>,
}

impl LoadRun {
    /// Failed operations: refused, errored or wrong.
    pub fn failed(&self) -> u64 {
        self.refused + self.errored + self.wrong
    }
}

/// Spins (yielding) or sleeps until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(250) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Records a served request's spans: the request (start to delivery) and
/// its `submit` call as the child.
fn trace_request(
    tracer: &mut Option<&mut Tracer>,
    id: u64,
    start: Instant,
    delivered: Instant,
    submit: (Instant, Instant),
) {
    if let Some(t) = tracer.as_deref_mut() {
        let root = t.record("serve.request", start, delivered, None, Some(id), 1);
        t.record("serve.submit", submit.0, submit.1, root, Some(id), 1);
    }
}

/// Resolves one handle into `run`.
fn settle(
    run: &mut LoadRun,
    expected: &Expected,
    pick: usize,
    handle: ResponseHandle,
    start: Instant,
) -> Option<Instant> {
    let (result, delivered) = handle.wait_at();
    match result {
        Ok(reply) => {
            if !expected.matches(pick, &reply) {
                run.wrong += 1;
            }
            run.latency_s.push((delivered - start).as_secs_f64());
            Some(delivered)
        }
        Err(_) => {
            run.errored += 1;
            None
        }
    }
}

/// Open loop: submits `schedule` on its absolute timetable from this
/// thread, keeping every handle, then collects the replies in order.
pub fn open_loop(
    server: &InferenceServer,
    pool: &[Vec<f32>],
    expected: &Expected,
    schedule: &Schedule,
    mut tracer: Option<&mut Tracer>,
) -> LoadRun {
    let n = schedule.due_ns.len();
    let traced = tracer.is_some();
    let mut run = LoadRun {
        lateness_s: Vec::with_capacity(n),
        latency_s: Vec::with_capacity(n),
        ..LoadRun::default()
    };
    let mut handles = Vec::with_capacity(n);
    let mut submits = Vec::with_capacity(if traced { n } else { 0 });
    let start = Instant::now() + Duration::from_millis(1);
    for (&due_ns, &pick) in schedule.due_ns.iter().zip(&schedule.pick) {
        let due = start + Duration::from_nanos(due_ns);
        wait_until(due);
        let sent = Instant::now();
        run.attempted += 1;
        run.lateness_s.push((sent - due).as_secs_f64());
        let submitted = server.submit(&pool[pick as usize]);
        if traced {
            submits.push((sent, Instant::now()));
        }
        match submitted {
            Ok(h) => handles.push(Some(h)),
            Err(_) => {
                run.refused += 1;
                handles.push(None);
            }
        }
    }
    let mut last = start;
    for (i, handle) in handles.into_iter().enumerate() {
        let Some(handle) = handle else { continue };
        let due = start + Duration::from_nanos(schedule.due_ns[i]);
        let pick = schedule.pick[i] as usize;
        if let Some(delivered) = settle(&mut run, expected, pick, handle, due) {
            last = last.max(delivered);
            run.in_window += 1;
            if traced {
                trace_request(&mut tracer, i as u64, due, delivered, submits[i]);
                run.submit_s
                    .push((submits[i].1 - submits[i].0).as_secs_f64());
            }
        }
    }
    run.window_s = (last - start).as_secs_f64();
    run
}

/// Closed loop: keeps `outstanding` requests in flight for `seconds`,
/// submitting the next (seeded) pool entry each time the oldest replies,
/// then drains the rest. Only replies inside the window count towards
/// `in_window`; every reply is checked.
pub fn closed_loop(
    server: &InferenceServer,
    pool: &[Vec<f32>],
    expected: &Expected,
    outstanding: usize,
    seconds: f64,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> LoadRun {
    let traced = tracer.is_some();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    // Reserved up front for 400k replies a second: growing the buffer
    // mid-run would copy the samples and, depending on how many replies a
    // run completes, briefly hold two buffers at the memory peak.
    let mut run = LoadRun {
        latency_s: Vec::with_capacity((seconds * 400_000.0) as usize),
        ..LoadRun::default()
    };
    let mut inflight: VecDeque<(u64, usize, Instant, Instant, ResponseHandle)> =
        VecDeque::with_capacity(outstanding);
    let mut next_id = 0u64;
    let mut submit_one = |run: &mut LoadRun, inflight: &mut VecDeque<_>| {
        let pick = (rng.next_u64() % pool.len() as u64) as usize;
        let sent = Instant::now();
        run.attempted += 1;
        let submitted = server.submit(&pool[pick]);
        let returned = if traced { Instant::now() } else { sent };
        match submitted {
            Ok(h) => inflight.push_back((next_id, pick, sent, returned, h)),
            Err(_) => run.refused += 1,
        }
        next_id += 1;
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    for _ in 0..outstanding {
        submit_one(&mut run, &mut inflight);
    }
    let mut last = start;
    while let Some((id, pick, sent, returned, handle)) = inflight.pop_front() {
        let delivered = settle(&mut run, expected, pick, handle, sent);
        if let Some(at) = delivered {
            if at <= end {
                run.in_window += 1;
                last = last.max(at);
            }
            if traced {
                trace_request(&mut tracer, id, sent, at, (sent, returned));
                run.submit_s.push((returned - sent).as_secs_f64());
            }
        }
        if Instant::now() < end {
            submit_one(&mut run, &mut inflight);
        }
    }
    run.window_s = (last - start).as_secs_f64();
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_from_its_seed() {
        let a = poisson_schedule(11, 20_000.0, 0.05, 300);
        let b = poisson_schedule(11, 20_000.0, 0.05, 300);
        let c = poisson_schedule(12, 20_000.0, 0.05, 300);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // ~1000 arrivals in 50 ms at 20k/s, ascending, inside the horizon
        assert!((800..1200).contains(&a.due_ns.len()), "{}", a.due_ns.len());
        assert!(a.due_ns.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.due_ns.last().unwrap() < 50_000_000);
        assert!(a.pick.iter().all(|&p| p < 300));
    }

    #[test]
    fn a_corrupted_reply_fails_the_check() {
        let expected = Expected {
            replies: vec![(vec![0.25, 0.75], 0), (vec![0.5, 0.5], 1)],
        };
        let good = Reply {
            probs: vec![0.25, 0.75],
            exit_taken: 0,
            mc_samples: 4,
            quality_tier: 0,
        };
        assert!(expected.matches(0, &good));
        // the same reply for the wrong pool entry
        assert!(!expected.matches(1, &good));
        // one ulp off in one class
        let mut ulp = good.clone();
        ulp.probs[1] = f32::from_bits(ulp.probs[1].to_bits() + 1);
        assert!(!expected.matches(0, &ulp));
        // right numbers, wrong exit
        assert!(!expected.matches(
            0,
            &Reply {
                exit_taken: 1,
                ..good.clone()
            }
        ));
        // served degraded
        assert!(!expected.matches(
            0,
            &Reply {
                quality_tier: 1,
                ..good.clone()
            }
        ));
        // truncated
        assert!(!expected.matches(
            0,
            &Reply {
                probs: vec![0.25],
                ..good
            }
        ));
    }

    #[test]
    fn failures_count_refusals_errors_and_wrong_replies() {
        let run = LoadRun {
            attempted: 10,
            refused: 2,
            errored: 1,
            wrong: 3,
            ..LoadRun::default()
        };
        assert_eq!(run.failed(), 6);
    }
}
