//! Load generation: closed and open loops over per-connection state, and
//! a minimal keep-alive HTTP/1.1 client.
//!
//! A closed loop sends a connection's next request only after the previous
//! one completed. An open loop owns a schedule: request `i` is due at
//! `start + i × interval`, whichever connection is free takes it, and its
//! latency runs from the due time — so a stall makes every later request
//! late instead of making fewer requests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one loop phase measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per request, in completion order: call time (closed loop) or time
    /// since due (open loop), µs.
    pub latencies_us: Vec<f64>,
    /// Open loop only: how late the generator woke for a request whose
    /// connection was free before it was due, µs.
    pub lags_us: Vec<f64>,
    /// Requests sent.
    pub attempted: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// CPU time the whole process used during the phase, seconds, less
    /// the host's share (see [`Meter::cpu_s`]).
    pub cpu_s: f64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time all threads of this process have used so far, seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution). Time the host
/// holds a virtual CPU while one of the threads runs on it is counted too.
fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the whole call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return 0.0;
    }
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Ticks of the machine's aggregate `cpu` line in `/proc/stat`: stolen by
/// the host, busy (user + nice + system + irq + softirq) and all.
fn machine_ticks() -> Option<[u64; 3]> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    Some([at(7), at(0) + at(1) + at(2) + at(5) + at(6), f.iter().sum()])
}

/// `cpu_s` less the share `stolen / (busy + stolen)` of it.
fn unstolen(cpu_s: f64, stolen: u64, busy: u64) -> f64 {
    if stolen + busy == 0 {
        return cpu_s;
    }
    cpu_s * busy as f64 / (busy + stolen) as f64
}

/// The process's CPU time and the host's steal over one interval.
pub struct Meter {
    cpu_s: f64,
    ticks: Option<[u64; 3]>,
}

impl Meter {
    pub fn start() -> Meter {
        Meter {
            cpu_s: process_cpu_s(),
            ticks: machine_ticks(),
        }
    }

    fn ticks_since(&self) -> Option<[u64; 3]> {
        let (a, b) = (self.ticks?, machine_ticks()?);
        Some([0, 1, 2].map(|i| b[i].saturating_sub(a[i])))
    }

    /// Share of the machine's CPU time the host stole since `start`.
    pub fn steal_frac(&self) -> f64 {
        self.ticks_since().map_or(0.0, |[stolen, _, all]| {
            if all == 0 {
                0.0
            } else {
                stolen as f64 / all as f64
            }
        })
    }

    /// CPU seconds the process used since `start`, less the share of the
    /// machine's busy time the host stole meanwhile. The process clock runs
    /// on while the host holds the virtual CPU a thread runs on: on a
    /// shared 2-vCPU virtual machine, rounds with 25–30% stolen time read
    /// 40–47% more CPU per request unscaled.
    pub fn cpu_s(&self) -> f64 {
        let cpu = process_cpu_s() - self.cpu_s;
        match self.ticks_since() {
            Some([stolen, busy, _]) => unstolen(cpu, stolen, busy),
            None => cpu,
        }
    }
}

#[derive(Default)]
struct ThreadResult {
    latencies_us: Vec<f64>,
    done_s: Vec<f64>,
    lags_us: Vec<f64>,
    attempted: usize,
    failed: usize,
}

fn run_threads<C: Send>(
    conns: &mut [C],
    start: Instant,
    body: impl Fn(&mut C, &mut ThreadResult) + Sync,
) -> LoopResult {
    let meter = Meter::start();
    let parts: Vec<ThreadResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let body = &body;
                scope.spawn(move || {
                    let mut r = ThreadResult::default();
                    body(conn, &mut r);
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let mut out = LoopResult {
        elapsed: start.elapsed(),
        cpu_s: meter.cpu_s(),
        ..LoopResult::default()
    };
    let mut done: Vec<(f64, f64)> = Vec::new();
    for p in parts {
        done.extend(p.done_s.into_iter().zip(p.latencies_us));
        out.lags_us.extend(p.lags_us);
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    out.latencies_us = done.into_iter().map(|(_, l)| l).collect();
    out
}

/// One thread per connection, each sending back to back until `duration`
/// has passed or `limit` requests were claimed. `send(conn, i)` performs
/// request `i` and reports success.
pub fn closed_loop<C: Send>(
    conns: &mut [C],
    limit: usize,
    duration: Duration,
    send: impl Fn(&mut C, usize) -> bool + Sync,
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    run_threads(conns, start, |conn, r| {
        while start.elapsed() < duration {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= limit {
                break;
            }
            let t0 = Instant::now();
            let ok = send(conn, i);
            let done = Instant::now();
            r.latencies_us.push((done - t0).as_secs_f64() * 1e6);
            r.done_s.push((done - start).as_secs_f64());
            r.attempted += 1;
            r.failed += usize::from(!ok);
        }
    })
}

/// Send `total` requests on a fixed schedule, request `i` due at
/// `start + i × interval`, over the given connections.
pub fn open_loop<C: Send>(
    conns: &mut [C],
    total: usize,
    interval: Duration,
    send: impl Fn(&mut C, usize) -> bool + Sync,
) -> LoopResult {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    run_threads(conns, start, |conn, r| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= total {
            break;
        }
        let due = start + interval * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            r.lags_us
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
        }
        let ok = send(conn, i);
        let done = Instant::now();
        r.latencies_us.push((done - due).as_secs_f64() * 1e6);
        r.done_s.push((done - start).as_secs_f64());
        r.attempted += 1;
        r.failed += usize::from(!ok);
    })
}

/// A keep-alive HTTP/1.1 connection that POSTs one request at a time.
pub struct HttpConn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    body_start: usize,
}

impl HttpConn {
    /// Connect with Nagle off.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpConn {
            addr,
            stream,
            buf: Vec::with_capacity(16 * 1024),
            body_start: 0,
        })
    }

    /// POST `sql` to `/query` and read the whole response; returns the
    /// status. A transport error reconnects, so the next call starts clean.
    pub fn post_query(&mut self, sql: &str) -> io::Result<u16> {
        let out = self.exchange(sql);
        if out.is_err() {
            *self = HttpConn::connect(self.addr)?;
        }
        out
    }

    /// Body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    fn exchange(&mut self, sql: &str) -> io::Result<u16> {
        let head = format!(
            "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            sql.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(sql.as_bytes())?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let (head_end, status, length) = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let (status, length) = parse_head(&self.buf[..pos])?;
                break (pos + 4, status, length);
            }
        };
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        self.body_start = head_end;
        Ok(status)
    }
}

fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    let length = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())
                .flatten()
        })
        .ok_or_else(|| bad("response has no Content-Length"))?;
    Ok((status, length))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_share_of_busy_time_is_taken_out() {
        assert!((unstolen(1.4, 30, 70) - 0.98).abs() < 1e-12);
        assert_eq!(unstolen(2.0, 0, 50), 2.0);
        assert_eq!(unstolen(2.0, 0, 0), 2.0);
        let m = Meter::start();
        assert!(m.cpu_s() >= 0.0 && (0.0..=1.0).contains(&m.steal_frac()));
    }

    #[test]
    fn stalled_server_makes_later_requests_late_not_fewer() {
        let total = 20;
        let interval = Duration::from_millis(5);
        let stall = Duration::from_millis(50);
        let mut conns = [()];
        let r = open_loop(&mut conns, total, interval, |_, i| {
            if i == 2 {
                std::thread::sleep(stall);
            }
            true
        });
        assert_eq!(r.attempted, total, "every scheduled request is still sent");
        // Requests 2..=8 are due by 40 ms but cannot start before the stall
        // ends at >= 60 ms, so each is at least 20 ms late.
        let late = r.latencies_us.iter().filter(|&&l| l >= 20_000.0).count();
        assert!(late >= 7, "only {late} requests were charged the stall");
        // Requests queued behind the stall waited for the connection, which
        // is not generator lateness.
        assert!(r.lags_us.len() <= total - 8);
    }

    #[test]
    fn open_loop_keeps_its_schedule_when_the_server_is_fast() {
        let mut conns = [(), ()];
        let t0 = Instant::now();
        let r = open_loop(&mut conns, 10, Duration::from_millis(3), |_, _| true);
        assert_eq!((r.attempted, r.failed), (10, 0));
        assert!(t0.elapsed() >= Duration::from_millis(27));
        // Request 0 is due at the start, so only the later nine wait.
        assert_eq!(r.lags_us.len(), 9);
    }

    #[test]
    fn closed_loop_counts_failures_and_stops_at_the_limit() {
        let mut conns = [0usize, 0usize];
        let r = closed_loop(&mut conns, 9, Duration::from_secs(5), |n, i| {
            *n += 1;
            i % 3 != 0
        });
        assert_eq!((r.attempted, r.failed), (9, 3));
        assert_eq!(conns.iter().sum::<usize>(), 9);
    }
}
