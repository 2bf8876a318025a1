//! Open-loop load over a fixed set of TCP connections.
//!
//! Request `k` of a phase falls due `k / rate` seconds after the phase
//! starts and goes to connection `k % conns`. One thread drives each
//! connection: it sends every request when it falls due, whatever is still
//! outstanding, and reads replies in between (the server answers in
//! request order on each connection). Each request line leaves in one
//! `write` on a socket with `TCP_NODELAY`, so a stall the benchmark sees is
//! the server's, not the generator's. A request is timed from when it was
//! due, not from when it was sent, so a stall also counts against every
//! request queued behind it; how late the generator sent each request is
//! recorded separately, and so is the part of that lateness the in-flight
//! cap did not cause, which is the generator's own.

use crate::stats::{percentile, Summary};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Timeline of one request, in nanoseconds after the phase start.
#[derive(Clone, Debug)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When it was written to the socket.
    pub sent_ns: Option<u64>,
    /// When the in-flight cap let it go, if the cap held it back.
    pub free_ns: Option<u64>,
    /// When its reply line arrived.
    pub recv_ns: Option<u64>,
    /// The reply line (without the newline), or why there is none.
    pub reply: Result<String, String>,
}

impl Timing {
    fn pending(due_ns: u64) -> Timing {
        Timing {
            due_ns,
            sent_ns: None,
            free_ns: None,
            recv_ns: None,
            reply: Err("not sent".to_string()),
        }
    }

    /// Due-to-reply latency in µs; `None` without a reply.
    pub fn latency_us(&self) -> Option<f64> {
        self.reply.as_ref().ok()?;
        Some(self.recv_ns?.saturating_sub(self.due_ns) as f64 / 1e3)
    }

    /// Send-to-reply round trip in µs.
    pub fn rtt_us(&self) -> Option<f64> {
        self.reply.as_ref().ok()?;
        Some(self.recv_ns?.saturating_sub(self.sent_ns?) as f64 / 1e3)
    }

    /// How late the request was sent, in µs.
    pub fn late_us(&self) -> Option<f64> {
        Some(self.sent_ns?.saturating_sub(self.due_ns) as f64 / 1e3)
    }

    /// The part of [`Timing::late_us`] the in-flight cap did not cause: how
    /// late the request was sent after it was both due and allowed.
    pub fn gen_late_us(&self) -> Option<f64> {
        let ready = self.due_ns.max(self.free_ns.unwrap_or(0));
        Some(self.sent_ns?.saturating_sub(ready) as f64 / 1e3)
    }
}

/// Due time of request `k` at `rate` requests per second.
pub fn due_ns(k: usize, rate: f64) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let ns = (k as f64 * 1e9 / rate).round() as u64;
    ns
}

/// Poll interval for replies while requests are outstanding.
const POLL: Duration = Duration::from_micros(100);

fn ns_since(start: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Send `lines` open-loop at `rate` over `conns` and collect every reply.
///
/// At most `max_inflight` requests are outstanding per connection; a
/// request held back by that cap is sent late, which the lateness
/// accounting shows. Replies still missing `drain` after the last due time
/// are recorded as timeouts. Returns one [`Timing`] per line, in line
/// order.
pub fn run_phase(
    conns: &mut [TcpStream],
    lines: &[String],
    rate: f64,
    max_inflight: usize,
    drain: Duration,
) -> Vec<Timing> {
    let n_conns = conns.len().max(1);
    // A short lead so every driver thread runs before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let mut out: Vec<Option<Timing>> = vec![None; lines.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| {
                let jobs: Vec<usize> = (c..lines.len()).step_by(n_conns).collect();
                s.spawn(move || {
                    let timings = drive(stream, &jobs, lines, rate, start, max_inflight, drain);
                    (jobs, timings)
                })
            })
            .collect();
        for h in handles {
            let (jobs, timings) = h.join().expect("load driver thread panicked");
            for (k, t) in jobs.into_iter().zip(timings) {
                out[k] = Some(t);
            }
        }
    });
    out.into_iter()
        .map(|t| t.expect("every request belongs to one connection"))
        .collect()
}

/// Drive one connection through its share of the schedule.
fn drive(
    stream: &mut TcpStream,
    jobs: &[usize],
    lines: &[String],
    rate: f64,
    start: Instant,
    max_inflight: usize,
    drain: Duration,
) -> Vec<Timing> {
    let mut out: Vec<Timing> = jobs
        .iter()
        .map(|&k| Timing::pending(due_ns(k, rate)))
        .collect();
    let end = start + Duration::from_nanos(out.last().map_or(0, |t| t.due_ns)) + drain;
    let (mut next, mut answered) = (0usize, 0usize);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut failure: Option<String> = None;
    // Non-blocking reads polled every `POLL`: a socket read timeout is
    // rounded up to the kernel tick, which would make the generator
    // milliseconds late.
    if let Err(e) = stream.set_nonblocking(true) {
        failure = Some(format!("set non-blocking: {e}"));
    }
    while failure.is_none() && answered < out.len() {
        let now = Instant::now();
        let can_send = next < out.len() && next - answered < max_inflight.max(1);
        let next_due = out
            .get(next)
            .map(|t| start + Duration::from_nanos(t.due_ns));
        if can_send && next_due.is_some_and(|d| now >= d) {
            out[next].sent_ns = Some(ns_since(start, now));
            if let Err(e) = stream.write_all(lines[jobs[next]].as_bytes()) {
                failure = Some(format!("send: {e}"));
                break;
            }
            next += 1;
            continue;
        }
        if now >= end {
            failure = Some("timed out waiting for the reply".to_string());
            break;
        }
        let wake = match next_due {
            Some(d) if can_send => d.min(end),
            _ => end,
        };
        if answered == next {
            // Nothing in flight: sleep until the next request falls due.
            std::thread::sleep(wake.saturating_duration_since(now));
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                failure = Some("connection closed by the server".to_string());
                break;
            }
            Ok(n) => {
                let t = ns_since(start, Instant::now());
                // Requests before this index were allowed out before the read.
                let allowed_before = answered + max_inflight.max(1);
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    if answered == next {
                        failure = Some("reply without a request".to_string());
                        break;
                    }
                    out[answered].recv_ns = Some(t);
                    out[answered].reply = Ok(String::from_utf8_lossy(&line[..pos]).into_owned());
                    answered += 1;
                }
                if failure.is_some() {
                    break;
                }
                // Every unsent request the replies just let out was held
                // by the cap until now.
                let allowed = (answered + max_inflight.max(1)).min(out.len());
                for o in &mut out[allowed_before.max(next).min(allowed)..allowed] {
                    o.free_ns = Some(t);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(wake.saturating_duration_since(now).min(POLL));
            }
            Err(e) => {
                failure = Some(format!("recv: {e}"));
                break;
            }
        }
    }
    let _ = stream.set_nonblocking(false);
    if let Some(f) = failure {
        for t in &mut out[answered..] {
            t.reply = Err(f.clone());
        }
    }
    out
}

/// What one phase measured.
#[derive(Clone, Debug)]
pub struct PhaseStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests in the phase.
    pub sent: usize,
    /// Requests without a reply (transport error or timeout).
    pub errors: usize,
    /// Due-to-reply latency in µs; a request without a reply counts as
    /// infinitely late.
    pub latency: Option<Summary>,
    /// Send-to-reply round trip in µs.
    pub rtt: Option<Summary>,
    /// How late each request was sent, in µs.
    pub late: Option<Summary>,
    /// The generator's own share of that lateness, in µs (see
    /// [`Timing::gen_late_us`]).
    pub gen_late: Option<Summary>,
    /// 90th percentile of the generator's own lateness, in µs.
    pub gen_late_p90: Option<f64>,
    /// Requests still unanswered when the last request of a slice was
    /// sent, at most over the slices.
    pub backlog_at_end: usize,
}

/// Summarise the timings of one phase, run as one or more slices at the
/// same rate.
pub fn analyse(slices: &[&[Timing]], rate: f64) -> PhaseStats {
    let all = || slices.iter().flat_map(|s| s.iter());
    let latency: Vec<f64> = all()
        .map(|t| t.latency_us().unwrap_or(f64::INFINITY))
        .collect();
    let rtt: Vec<f64> = all().filter_map(Timing::rtt_us).collect();
    let late: Vec<f64> = all().filter_map(Timing::late_us).collect();
    let mut gen_late: Vec<f64> = all().filter_map(Timing::gen_late_us).collect();
    gen_late.sort_by(f64::total_cmp);
    let backlog = |timings: &[Timing]| {
        let last_sent = timings.iter().filter_map(|t| t.sent_ns).max().unwrap_or(0);
        timings
            .iter()
            .filter(|t| t.recv_ns.is_none_or(|r| r > last_sent))
            .count()
    };
    PhaseStats {
        rate,
        sent: all().count(),
        errors: all().filter(|t| t.reply.is_err()).count(),
        latency: Summary::of(&latency),
        rtt: Summary::of(&rtt),
        late: Summary::of(&late),
        gen_late: Summary::of(&gen_late),
        gen_late_p90: percentile(&gen_late, 90.0),
        backlog_at_end: slices.iter().map(|s| backlog(s)).max().unwrap_or(0),
    }
}

impl PhaseStats {
    /// Whether the generator kept to its schedule: at most 10% of requests
    /// left more than `limit_us` late by the generator's own doing (what
    /// the in-flight cap held back is the server's). On a shared machine
    /// the generator is descheduled now and then, which delays a few
    /// requests each time; a generator that cannot keep up delays most.
    pub fn generator_on_time(&self, limit_us: f64) -> bool {
        self.gen_late_p90.is_some_and(|l| l <= limit_us)
    }
}

/// Replies per second of a saturated phase: the replies in arrival order
/// are cut into `windows` runs of equal count, the first (the ramp) is
/// dropped, and the rate of each of the others is returned. Empty without
/// enough replies.
pub fn throughput(timings: &[Timing], windows: usize) -> Vec<f64> {
    let mut recv: Vec<u64> = timings
        .iter()
        .filter(|t| t.reply.is_ok())
        .filter_map(|t| t.recv_ns)
        .collect();
    recv.sort_unstable();
    let per = recv.len() / windows.max(1);
    if windows < 2 || per == 0 {
        return Vec::new();
    }
    let ends: Vec<u64> = (1..=windows).map(|k| recv[k * per - 1]).collect();
    #[allow(clippy::cast_precision_loss)]
    let rates = ends
        .windows(2)
        .map(|w| per as f64 * 1e9 / w[1].saturating_sub(w[0]).max(1) as f64)
        .collect();
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    #[test]
    fn schedule_is_evenly_spaced() {
        assert_eq!(due_ns(0, 100.0), 0);
        assert_eq!(due_ns(3, 100.0), 30_000_000);
        assert_eq!(due_ns(1, 4000.0), 250_000);
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let t = Timing {
            due_ns: 1_000,
            sent_ns: Some(5_000),
            free_ns: None,
            recv_ns: Some(9_000),
            reply: Ok("{}".to_string()),
        };
        assert_eq!(t.latency_us(), Some(8.0));
        assert_eq!(t.rtt_us(), Some(4.0));
        assert_eq!(t.late_us(), Some(4.0));
        assert_eq!(t.gen_late_us(), Some(4.0));
        // Held by the in-flight cap until 4 µs: only 1 µs is the generator's.
        let capped = Timing {
            free_ns: Some(4_000),
            ..t.clone()
        };
        assert_eq!(capped.late_us(), Some(4.0));
        assert_eq!(capped.gen_late_us(), Some(1.0));
        let lost = Timing {
            reply: Err("timeout".to_string()),
            ..t
        };
        assert_eq!(lost.latency_us(), None);
    }

    #[test]
    fn analysis_counts_failures_and_backlog() {
        let mut ts: Vec<Timing> = (0..100u64)
            .map(|k| Timing {
                due_ns: k * 1_000_000,
                sent_ns: Some(k * 1_000_000 + 10_000),
                free_ns: None,
                recv_ns: Some(k * 1_000_000 + 500_000),
                reply: Ok("{}".to_string()),
            })
            .collect();
        let ok = analyse(&[&ts], 1000.0);
        assert_eq!(ok.errors, 0);
        assert_eq!(ok.backlog_at_end, 1);
        assert_eq!(ok.late.unwrap().p50, 10.0);
        assert_eq!(ok.latency.unwrap().p50, 500.0);
        assert!(ok.generator_on_time(20.0));
        assert!(!ok.generator_on_time(5.0));

        // Two slices: counts add up, the backlog is the worst slice's.
        let two = analyse(&[&ts[..50], &ts[50..]], 1000.0);
        assert_eq!((two.sent, two.backlog_at_end), (100, 1));

        // The server fell 80 ms behind on the second half.
        for t in &mut ts[50..] {
            t.recv_ns = Some(t.recv_ns.unwrap() + 80_000_000);
        }
        ts[99].reply = Err("timed out".to_string());
        let bad = analyse(&[&ts], 1000.0);
        assert_eq!(bad.errors, 1);
        assert!(bad.latency.unwrap().tail >= 80_000.0);
        assert!(bad.backlog_at_end >= 50);
    }

    #[test]
    fn one_hiccup_is_not_falling_behind() {
        let timing = |k: u64, late_ns: u64| Timing {
            due_ns: k * 1_000_000,
            sent_ns: Some(k * 1_000_000 + late_ns),
            free_ns: None,
            recv_ns: Some(k * 1_000_000 + late_ns + 500_000),
            reply: Ok("{}".to_string()),
        };
        // 1000 requests; the generator was descheduled for 15 ms now and
        // then, so 50 of them left late.
        let hiccup: Vec<Timing> = (0..1000u64)
            .map(|k| timing(k, if k % 20 == 0 { 15_000_000 } else { 50_000 }))
            .collect();
        assert!(analyse(&[&hiccup], 1000.0).generator_on_time(10_000.0));
        // Falling behind: every request leaves later than the last.
        let behind: Vec<Timing> = (0..1000u64).map(|k| timing(k, k * 100_000)).collect();
        assert!(!analyse(&[&behind], 1000.0).generator_on_time(10_000.0));
    }

    /// A line server that stalls `stall` before its first reply on each
    /// connection, then answers `ok` to every line.
    fn stalling_server(stall: Duration) -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming().take(2) {
                let conn = conn.unwrap();
                std::thread::spawn(move || {
                    let mut w = conn.try_clone().unwrap();
                    let mut first = true;
                    for line in BufReader::new(conn).lines() {
                        if line.is_err() {
                            break;
                        }
                        if first {
                            std::thread::sleep(stall);
                            first = false;
                        }
                        if w.write_all(b"ok\n").is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    fn connect(addr: std::net::SocketAddr) -> TcpStream {
        let s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        s
    }

    #[test]
    fn open_loop_keeps_sending_through_a_stall() {
        let addr = stalling_server(Duration::from_millis(100));
        let mut conns = vec![connect(addr), connect(addr)];
        let lines: Vec<String> = (0..400).map(|i| format!("req {i}\n")).collect();
        // 2000 rps: 200 ms of schedule, the first 100 ms of it stalled.
        let ts = run_phase(&mut conns, &lines, 2000.0, 1000, Duration::from_secs(5));
        assert!(ts.iter().all(|t| t.reply.as_deref() == Ok("ok")));
        // The generator did not wait for the stalled replies ...
        let late: Vec<f64> = ts.iter().filter_map(Timing::late_us).collect();
        let late = Summary::of(&late).unwrap();
        assert!(late.p50 < 5_000.0, "generator lateness {late:?}");
        // ... and requests due during the stall are charged for it.
        let first = ts[0].latency_us().unwrap();
        assert!(first >= 100_000.0, "first latency {first}");
        let queued = ts[100].latency_us().unwrap();
        assert!(queued >= 40_000.0, "request due 50 ms in waited only {queued} us");
        let after = ts[399].latency_us().unwrap();
        assert!(after < first, "late requests should not wait out the stall");
    }

    #[test]
    fn inflight_cap_holds_requests_back() {
        let addr = stalling_server(Duration::from_millis(50));
        let mut conns = vec![connect(addr), connect(addr)];
        let lines: Vec<String> = (0..40).map(|i| format!("req {i}\n")).collect();
        let ts = run_phase(&mut conns, &lines, 10_000.0, 2, Duration::from_secs(5));
        assert!(ts.iter().all(|t| t.reply.is_ok()));
        // Two in flight per connection: the fifth request waits out the stall.
        assert!(ts[4].late_us().unwrap() >= 40_000.0);
        // That wait is the cap's, not the generator's.
        assert!(ts[4].free_ns.is_some());
        assert!(ts[4].gen_late_us().unwrap() < 20_000.0);
        assert!(analyse(&[&ts], 10_000.0).generator_on_time(20_000.0));
    }

    #[test]
    fn throughput_is_the_window_rates_after_the_ramp() {
        // 1000 replies: a slow ramp of 100 at 1 ms apart, then 100 µs apart
        // with one 50 ms hiccup.
        let mut t = 0u64;
        let ts: Vec<Timing> = (0..1000)
            .map(|k| {
                t += if k < 100 { 1_000_000 } else { 100_000 };
                if k == 600 {
                    t += 50_000_000;
                }
                Timing {
                    due_ns: 0,
                    sent_ns: Some(0),
                    free_ns: None,
                    recv_ns: Some(t),
                    reply: Ok("{}".to_string()),
                }
            })
            .collect();
        let rates = throughput(&ts, 10);
        assert_eq!(rates.len(), 9);
        let rate = crate::stats::median(&rates).unwrap();
        assert!((rate - 10_000.0).abs() < 1.0, "{rate}");
        assert!(throughput(&ts[..5], 10).is_empty());
    }
}
