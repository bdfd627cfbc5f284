//! The served workloads: the server runs as a child process of its
//! own, so its CPU and memory are the server's alone, and this process
//! is the load generator — a separate component with its own
//! timestamping client (one writer and one reader thread per
//! connection, so it cannot deadlock when serve becomes incremental).

use crate::api::{self, Schema, Served, Splitter};
use crate::procfs::Pid;
use crate::reference::{self, Expected, Inputs};
use crate::report::{connections, series_detail, Ledger, Outcome, END_TO_END};
use crate::stats::{median, Fnv};
use crate::workloads::{Format, Mode, OPEN_LOOP_RATE};
use crate::{median_setup, Options};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server must announce its address within this long.
const LISTEN_DEADLINE: Duration = Duration::from_secs(10);
/// A session that sees no byte for this long has failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The server child. Dropping it kills and reaps the process on every
/// path, error paths included.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout_drain: Option<JoinHandle<()>>,
    pub addr: String,
}

impl ServerChild {
    /// Re-executes this binary as `serve-child` and waits for its
    /// `listening on ADDR` line. Refuses to go on without one.
    pub fn start() -> Result<ServerChild, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // Reads the announcement, then keeps the pipe drained so the
        // server can never block on its own stdout.
        let stdout_drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            if let Some(Ok(first)) = lines.next() {
                let _ = tx.send(first);
            }
            drop(tx);
            for _ in lines {}
        });
        let mut server = ServerChild {
            child,
            stdin,
            stdout_drain: Some(stdout_drain),
            addr: String::new(),
        };
        let line = rx
            .recv_timeout(LISTEN_DEADLINE)
            .map_err(|_| "server child did not print `listening on` within 10 s")?;
        server.addr = line
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected server announcement `{line}`"))?
            .trim()
            .to_owned();
        Ok(server)
    }

    pub fn pid(&self) -> Pid {
        Pid::Of(self.child.id())
    }

    /// Whether the process has ended. `/proc/<pid>` cannot tell: an
    /// unreaped child stays readable there as a zombie.
    pub fn has_exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // End of file on stdin asks the server to drain and exit; give
        // it a moment, then make sure.
        drop(self.stdin.take());
        let asked = Instant::now();
        while asked.elapsed() < Duration::from_secs(2) {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stdout_drain.take() {
            let _ = drain.join();
        }
    }
}

/// What a session sends and what it must get back.
pub struct Script {
    handshake: Vec<u8>,
    /// Every upload frame and the end frame, in wire bytes; the same
    /// for every plan seed.
    upload: Arc<Vec<u8>>,
    expected: Expected,
}

/// Client-observed phase boundaries of one session, ms.
#[derive(Clone, Copy, Debug)]
pub struct SessionTimes {
    /// Connect (open loop: due instant) → handshake reply.
    pub handshake_ms: f64,
    /// Handshake reply → end frame written.
    pub upload_ms: f64,
    /// End frame written → first polluted data frame (0 once output
    /// starts before the upload ends).
    pub execute_gap_ms: f64,
    /// First polluted data frame (or end frame, if later) → report.
    pub drain_ms: f64,
    /// Connect (open loop: due instant) → report frame.
    pub session_ms: f64,
    /// First upload byte written → first polluted data frame.
    pub first_output_ms: f64,
    /// Open loop: actual start − due instant.
    pub late_ms: f64,
    /// When the report frame arrived.
    pub finished: Instant,
}

/// Runs one session against `addr`, timing from `origin` (the due
/// instant in an open loop, "now" in a closed one).
pub fn run_session(
    addr: &str,
    script: &Script,
    schema: &Schema,
    format: Format,
    origin: Instant,
) -> Result<SessionTimes, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| io("connect", e))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| io("set timeouts", e))?;
    stream
        .write_all(&script.handshake)
        .map_err(|e| io("write handshake", e))?;

    let mut buf = vec![0u8; 64 * 1024];
    let mut splitter = Splitter::for_handshake();
    let reply = loop {
        if let Some(frame) = splitter.next()? {
            break frame;
        }
        let n = stream.read(&mut buf).map_err(|e| io("read reply", e))?;
        if n == 0 {
            return Err("server closed before the handshake reply".into());
        }
        splitter.push(&buf[..n]);
    };
    let api::WireFrame::Line(reply) = reply else {
        return Err("binary frame before the handshake reply".into());
    };
    api::parse_handshake_reply(&reply)?;
    let replied = Instant::now();
    splitter.switch_to(format);

    let mut upload_stream = stream.try_clone().map_err(|e| io("clone socket", e))?;
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let first_byte = Instant::now();
            // A write error means the server ended the session; the
            // reader sees why.
            let _ = upload_stream.write_all(&script.upload);
            (first_byte, Instant::now())
        });

        let mut digest = Fnv::default();
        let mut tuples = 0usize;
        let mut first_output = None;
        let read = (|| loop {
            while let Some(frame) = splitter.next()? {
                let arrived = Instant::now();
                match api::decode_served(frame, schema, format)? {
                    Served::Data(batch) => {
                        first_output.get_or_insert(arrived);
                        tuples += batch.len();
                        api::digest_tuples(&mut digest, &batch);
                    }
                    Served::Report => return Ok(arrived),
                    Served::Failed(why) => return Err(format!("session failed: {why}")),
                }
            }
            let n = stream.read(&mut buf).map_err(|e| io("read", e))?;
            if n == 0 {
                return Err("server closed without a report frame".to_owned());
            }
            splitter.push(&buf[..n]);
        })();
        let (first_byte, uploaded) = writer.join().map_err(|_| "writer thread panicked")?;
        let reported = read?;

        let served = Expected {
            digest: digest.0,
            tuples,
        };
        if served != script.expected {
            return Err(format!(
                "served {served:x?}, offline gives {:x?}",
                script.expected
            ));
        }
        let first_output = first_output.unwrap_or(reported);
        let ms =
            |from: Instant, to: Instant| to.saturating_duration_since(from).as_secs_f64() * 1e3;
        Ok(SessionTimes {
            handshake_ms: ms(origin, replied),
            upload_ms: ms(replied, uploaded),
            execute_gap_ms: ms(uploaded, first_output),
            drain_ms: ms(first_output.max(uploaded), reported),
            session_ms: ms(origin, reported),
            first_output_ms: ms(first_byte, first_output),
            late_ms: ms(origin, started),
            finished: reported,
        })
    })
}

/// Everything a served workload needs before its window opens.
pub struct Ready {
    pub inputs: Inputs,
    pub scripts: Vec<Script>,
    pub server: ServerChild,
    pub format: Format,
    /// Server RSS after the warm-up session, no session open, MiB.
    pub idle_rss_mib: f64,
}

impl Ready {
    /// Data generation, oracle runs, frame encoding, server start and
    /// verified warm-up.
    pub fn set_up(opts: &Options) -> Result<Ready, String> {
        let w = &opts.workload;
        let inputs = reference::prepare(w, opts.scale, opts.seed)?;
        let mut upload = api::upload_frames(&inputs.data, w.format).concat();
        upload.extend(api::end_frame(w.format));
        let upload = Arc::new(upload);
        let scripts: Vec<Script> = inputs
            .plans
            .iter()
            .zip(&inputs.expected)
            .map(|(plan, &expected)| Script {
                handshake: api::handshake_line(plan, &inputs.schema, w.format),
                upload: Arc::clone(&upload),
                expected,
            })
            .collect();
        let server = ServerChild::start()?;
        // One warm-up session; short open-loop sessions get a second's
        // worth, or the server's first allocations would sit in the
        // window and set-up time would be too short to compare.
        let warm_ups = if w.mode == Mode::ServeOpen {
            OPEN_LOOP_RATE as usize
        } else {
            1
        };
        for _ in 0..warm_ups {
            run_session(
                &server.addr,
                &scripts[0],
                &inputs.schema,
                w.format,
                Instant::now(),
            )
            .map_err(|e| format!("warm-up session: {e}"))?;
        }
        let idle_rss_mib = server.pid().rss_mib().unwrap_or(0.0);
        Ok(Ready {
            inputs,
            scripts,
            server,
            format: w.format,
            idle_rss_mib,
        })
    }
}

/// Reads one figure off a session.
pub type Pick = fn(&SessionTimes) -> f64;

/// The outcome of a measured window of sessions.
#[derive(Default)]
pub struct Window {
    pub sessions: Vec<SessionTimes>,
    pub failures: Vec<String>,
    /// Window start → last session finished, s.
    pub elapsed_s: f64,
    /// Server CPU (user+sys) spent inside the window, s.
    pub server_cpu_s: f64,
}

impl Window {
    pub fn series(&self, pick: Pick) -> Vec<f64> {
        self.sessions.iter().map(pick).collect()
    }
}

/// Open-loop schedule: session `i` is due at `start + i * period`, and
/// `workers` threads take sessions in order, each sleeping until its
/// session is due. Due instants are fixed up front, so a slow session
/// never moves a later one's — it only makes the later one start late,
/// and that lateness is part of its latency. Returns what `job(i, due)`
/// returned, in session order.
pub fn open_loop<T: Send>(
    sessions: usize,
    period: Duration,
    workers: usize,
    job: impl Fn(usize, Instant) -> T + Sync,
) -> Vec<T> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let mut results = on_workers(workers, || {
        let mut mine = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= sessions {
                return mine;
            }
            let due = start + period.mul_f64(i as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            mine.push((i, job(i, due)));
        }
    });
    results.sort_by_key(|(i, _)| *i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Closed loop: each of `workers` connections starts its next session
/// as soon as its previous one completes, until `seconds` have passed.
fn closed_loop<T: Send>(
    seconds: f64,
    workers: usize,
    job: impl Fn(usize, Instant) -> T + Sync,
) -> Vec<T> {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    on_workers(workers, || {
        let mut mine = Vec::new();
        while start.elapsed().as_secs_f64() < seconds {
            let i = next.fetch_add(1, Ordering::Relaxed);
            mine.push(job(i, Instant::now()));
        }
        mine
    })
}

/// Runs `work` on `workers` load-generator threads and gathers what
/// they return; every thread is joined before this returns.
fn on_workers<T: Send>(workers: usize, work: impl Fn() -> Vec<T> + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1)).map(|_| scope.spawn(&work)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    })
}

/// Drives the workload's traffic at the server for `seconds`.
pub fn drive(ready: &Ready, mode: Mode, seconds: f64) -> Window {
    let conns = connections();
    let session = |i: usize, origin: Instant| {
        let script = &ready.scripts[i % ready.scripts.len()];
        run_session(
            &ready.server.addr,
            script,
            &ready.inputs.schema,
            ready.format,
            origin,
        )
    };
    let cpu_before = ready.server.pid().cpu_seconds().unwrap_or(0.0);
    let start = Instant::now();
    let results = if mode == Mode::ServeOpen {
        let sessions = (seconds * OPEN_LOOP_RATE).round().max(1.0) as usize;
        let period = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
        open_loop(sessions, period, conns, session)
    } else {
        closed_loop(seconds, conns, session)
    };
    let mut window = Window::default();
    let mut end = start;
    for result in results {
        match result {
            Ok(times) => {
                end = end.max(times.finished);
                window.sessions.push(times);
            }
            Err(e) => window.failures.push(e),
        }
    }
    window.elapsed_s = (end - start).as_secs_f64();
    window.server_cpu_s = ready.server.pid().cpu_seconds().unwrap_or(0.0) - cpu_before;
    window
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let (mut ready, setup_s) = median_setup(opts, Ready::set_up)?;
    let window = drive(&ready, opts.workload.mode, opts.seconds);
    let peak_rss = ready.server.pid().peak_rss_mib().unwrap_or(0.0);
    let died = ready.server.has_exited();
    drop(ready);
    if died {
        return Err("the server child died during the window".into());
    }

    let ok = window.sessions.len() as f64;
    let tuples_in = ok * opts.scale.tuples(&opts.workload) as f64;
    let session_ms = window.series(|s| s.session_ms);
    let first_output_ms = window.series(|s| s.first_output_ms);

    let mut ledger = Ledger::new(&END_TO_END);
    if window.elapsed_s > 0.0 && ok > 0.0 {
        ledger.set(
            "tuples_per_s",
            tuples_in / window.elapsed_s,
            format!(
                "{} sessions x {} tuples over {:.2} s on {} connection(s)",
                ok,
                opts.scale.tuples(&opts.workload),
                window.elapsed_s,
                connections()
            ),
        );
        ledger.set(
            "cpu_s_per_mtuple",
            window.server_cpu_s / (tuples_in / 1e6),
            "user+sys of the server child over the window",
        );
    }
    if let (Some(session), Some(first)) = (median(&session_ms), median(&first_output_ms)) {
        ledger.set("session_ms_p50", session, series_detail(&session_ms, "ms"));
        ledger.set(
            "first_output_ms_p50",
            first,
            series_detail(&first_output_ms, "ms"),
        );
    }
    ledger.set("peak_rss_mb", peak_rss, "VmHWM of the server child");
    ledger.set("setup_s", setup_s, "median of the set-ups made");
    let failed = window.failures.len() as u64;
    Ok(Outcome {
        attempted: window.sessions.len() as u64 + failed,
        failed,
        correct: failed == 0,
        metrics: ledger.finish(),
        notes: window.failures.into_iter().take(3).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A slow session must not move the due instants of later ones, and
    /// the lateness it causes must be visible to them.
    #[test]
    fn open_loop_due_times_do_not_slip_behind_a_slow_session() {
        let period = Duration::from_millis(10);
        let started_at = Mutex::new(Vec::new());
        let dues = open_loop(6, period, 1, |i, due| {
            started_at.lock().unwrap().push(Instant::now());
            if i == 0 {
                std::thread::sleep(period * 3);
            }
            due
        });
        let started_at = started_at.into_inner().unwrap();
        // Due instants are the fixed grid, whatever session 0 did.
        for pair in dues.windows(2) {
            assert_eq!(pair[1] - pair[0], period);
        }
        // Session 1 was due one period in, but could only start once
        // session 0 was done: at least two periods late.
        let late = started_at[1].saturating_duration_since(dues[1]);
        assert!(late >= period * 2 - Duration::from_millis(1), "{late:?}");
        // By session 5 the single worker has caught up with the grid.
        assert!(started_at[5] >= dues[5]);
        assert!(started_at[5].saturating_duration_since(dues[5]) < period * 2);
        // No session starts before it is due.
        for (start, due) in started_at.iter().zip(&dues) {
            assert!(start >= due);
        }
    }

    #[test]
    fn open_loop_spreads_sessions_over_workers_in_order() {
        let order = open_loop(20, Duration::from_millis(1), 3, |i, _| i);
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }
}
