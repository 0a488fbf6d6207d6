//! End-to-end and per-layer benchmark of the mmdb SQL-over-TCP stack.
//!
//! Usage: `perfbench --workload <transfer|join|mixed> --seed <n>
//! --seconds <s> --trace <0|1>`. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/NOTES.md` for what each workload and metric means.

mod drive;
mod gen;
mod layers;
mod oracle;
mod stats;
mod sysinfo;
mod trace;

use drive::{Conn, PhaseOut, Role};
use gen::{insert_batches, JoinData, ACCOUNTS, OPENING_BALANCE};
use mmdb_server::{Server, ServerConfig, ServerHandle};
use mmdb_session::{CommitPolicy, Engine, EngineOptions, RecoveryInfo, StatsSnapshot};
use oracle::{reference_join, Fingerprint, Ledger};
use stats::{median, Summary, FAST_PCT};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine and server starts per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Recoveries of copies of one crashed log per run; `recover.total_ms` is
/// their median.
const RECOVERY_REPEATS: usize = 7;
/// Untimed closed-loop traffic before the timed phase.
const WARMUP: Duration = Duration::from_secs(1);
/// Transfers committed between the recovery checkpoint and the crash.
const POST_CHECKPOINT_TRANSFERS: u64 = 300;
/// The group-commit daemon's flush interval: the engine default. Never
/// zero, see [`attest`].
const FLUSH_INTERVAL: Duration = Duration::from_millis(1);
/// The background checkpointer's sweep interval.
const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(1);
/// Rows per `INSERT` statement while loading.
const INSERT_BATCH: usize = 500;
/// The tail percentile of the windowed `op.p95_ms` metric.
const OP_TAIL: f64 = 95.0;
/// The tail percentile reported beside each median in the `detail`
/// line, with its support.
const REPORT_TAIL: f64 = 99.0;
/// A run still going after this long is stuck; it exits with an error
/// so that it never outlives its caller's time limit.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Transfer,
    Join,
    Mixed,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Transfer => "transfer",
            Workload::Join => "join",
            Workload::Mixed => "mixed",
        }
    }

    fn has_acct(self) -> bool {
        self != Workload::Join
    }

    /// Connection roles: lane 0 is the transaction (or query) stream.
    fn roles(self) -> &'static [Role] {
        match self {
            Workload::Transfer => &[Role::Transfer, Role::Transfer],
            Workload::Join => &[Role::Join],
            Workload::Mixed => &[Role::Transfer, Role::PointRead],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "transfer" => Workload::Transfer,
                    "join" => Workload::Join,
                    "mixed" => Workload::Mixed,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The engine configuration every run uses: group commit on the real
/// log device with no modeled latency ("hardware" arm).
fn engine_options(dir: &Path) -> EngineOptions {
    EngineOptions::new(CommitPolicy::Group, dir)
        .with_page_write_latency(Duration::ZERO)
        .with_lock_op_latency(Duration::ZERO)
        .with_flush_interval(FLUSH_INTERVAL)
        .with_checkpoint_interval(CHECKPOINT_INTERVAL)
}

/// Refuses configurations whose numbers would not describe the real
/// stack: injected faults, or a zero flush interval (the commit daemon
/// then busy-waits on its condition variable and spins a core).
fn attest(o: &EngineOptions) -> Result<(), String> {
    if !o.fault_plans.is_empty() {
        return Err("refusing to run with log-device fault plans".to_string());
    }
    if o.flush_interval.is_zero() {
        return Err("refusing to run with a zero flush interval".to_string());
    }
    if !o.page_write_latency.is_zero() || !o.lock_op_latency.is_zero() {
        return Err("the benchmark measures zero modeled latency".to_string());
    }
    if o.checkpoint_interval.is_none() {
        return Err("the benchmark runs the background checkpointer".to_string());
    }
    Ok(())
}

/// A scratch directory under the working directory, removed on drop.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Stack {
    engine: Engine,
    server: ServerHandle,
    addr: SocketAddr,
}

fn start_server(engine: &Engine) -> Result<(ServerHandle, SocketAddr), String> {
    let server =
        Server::start(engine, ServerConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    Ok((server, addr))
}

fn stop(stack: Stack) -> Result<(), String> {
    stack
        .server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    stack
        .engine
        .shutdown()
        .map_err(|e| format!("engine shutdown: {e}"))
}

fn execute_all(client: &mut mmdb_server::Client, sqls: &[String]) -> Result<(), String> {
    for sql in sqls {
        client
            .execute(sql)
            .map_err(|e| format!("{}: {e}", &sql[..sql.len().min(60)]))?;
    }
    Ok(())
}

/// One timed set-up: engine and server start, `CREATE TABLE`, and
/// batched `INSERT` of every row over TCP until the last is answered.
struct Setup {
    stack: Stack,
    total_s: f64,
    insert_s: f64,
    rows: u64,
}

fn setup(w: Workload, options: EngineOptions, data: &JoinData) -> Result<Setup, String> {
    let (creates, inserts, rows) = if w.has_acct() {
        let accounts: Vec<u64> = (1..=ACCOUNTS).collect();
        (
            vec!["CREATE TABLE acct (id INT, bal INT)".to_string()],
            insert_batches("acct", &accounts, INSERT_BATCH, |id| {
                format!("({id}, {OPENING_BALANCE})")
            }),
            ACCOUNTS,
        )
    } else {
        let mut inserts = insert_batches("dept", &data.dept, INSERT_BATCH, |(d, f)| {
            format!("({d}, {f})")
        });
        inserts.extend(insert_batches(
            "emp",
            &data.emp,
            INSERT_BATCH,
            |(i, d, s)| format!("({i}, {d}, {s})"),
        ));
        (
            vec![
                "CREATE TABLE emp (id INT, dept INT, sal INT)".to_string(),
                "CREATE TABLE dept (did INT, floor INT)".to_string(),
            ],
            inserts,
            (data.emp.len() + data.dept.len()) as u64,
        )
    };
    let t0 = Instant::now();
    let engine = Engine::start(options).map_err(|e| format!("engine start: {e}"))?;
    let (server, addr) = start_server(&engine)?;
    let mut client = drive::connect(addr)?;
    execute_all(&mut client, &creates)?;
    let t1 = Instant::now();
    execute_all(&mut client, &inserts)?;
    let insert_s = t1.elapsed().as_secs_f64();
    let total_s = t0.elapsed().as_secs_f64();
    Ok(Setup {
        stack: Stack {
            engine,
            server,
            addr,
        },
        total_s,
        insert_s,
        rows,
    })
}

/// Counters and histogram totals read through `Engine::stats()`; only
/// exact counts and sums are used, never bucket quantiles.
struct Snap {
    stats: StatsSnapshot,
    cpu_us: u64,
    steal: (u64, u64),
    live_log_bytes: u64,
}

impl Snap {
    fn take(engine: &Engine, log_dir: &Path) -> Snap {
        Snap {
            stats: engine.stats(),
            cpu_us: sysinfo::cpu_us(),
            steal: sysinfo::steal_ticks(),
            live_log_bytes: sysinfo::dir_bytes(log_dir, is_live_log),
        }
    }
}

/// Generation-0 device files (`wal-d<i>.log`): the live log of an engine
/// started fresh. Checkpoints write other generations.
fn is_live_log(name: &str) -> bool {
    name.starts_with("wal-d") && name.ends_with(".log")
}

struct Delta<'a> {
    a: &'a StatsSnapshot,
    b: &'a StatsSnapshot,
}

impl Delta<'_> {
    fn counter(&self, base: &str) -> f64 {
        self.b
            .counter_sum(base)
            .saturating_sub(self.a.counter_sum(base)) as f64
    }

    /// `(count, sum)` of a histogram family over the interval.
    fn hist(&self, base: &str) -> (f64, f64) {
        let (ha, hb) = (self.a.histogram_merged(base), self.b.histogram_merged(base));
        (
            hb.count.saturating_sub(ha.count) as f64,
            hb.sum.wrapping_sub(ha.sum) as f64,
        )
    }

    fn hist_mean(&self, base: &str) -> f64 {
        let (n, sum) = self.hist(base);
        ratio(sum, n)
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn merged_ledger(conns: &[Conn], extra: &Ledger) -> Ledger {
    let mut l = extra.clone();
    for c in conns {
        l.merge(&c.ledger);
    }
    l
}

/// The end-to-end check after the timed phase: balances over TCP must
/// match the ledger (`transfer`, `mixed`); every floor's join must
/// match the reference (`join`).
fn check_state(
    w: Workload,
    addr: SocketAddr,
    ledger: &Ledger,
    reference: &[Fingerprint],
) -> Result<(), String> {
    let mut client = drive::connect(addr)?;
    if w.has_acct() {
        let rows = drive::read_balances(&mut client)?;
        ledger.check(&rows)
    } else {
        drive::check_all_floors(&mut client, reference)
    }
}

/// Copies the files of `from` into a new directory `to` and syncs them,
/// so that no write-back of the copies overlaps a timed recovery.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            let target = to.join(entry.file_name());
            std::fs::copy(entry.path(), &target).map_err(|e| format!("copy: {e}"))?;
            std::fs::File::open(&target)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("sync {}: {e}", target.display()))?;
        }
    }
    std::fs::File::open(to)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("sync {}: {e}", to.display()))
}

struct RecoveryOut {
    times_s: Vec<f64>,
    recovery_s: f64,
    engine_us: f64,
    info: RecoveryInfo,
    /// The oracle's verdict on the first recovered state.
    verdict: Result<(), String>,
}

/// What every phase of one run shares.
struct Ctx {
    w: Workload,
    /// This run's scratch directory under `.bench_run/`.
    root: PathBuf,
    /// Zero for span timestamps.
    epoch: Instant,
    /// Per-floor reference join results (`join` only).
    reference: Arc<Vec<Fingerprint>>,
}

/// The fixed recovery procedure: checkpoint, commit a fixed number of
/// transfers (none on `join`), crash, then recover copies of the
/// crashed log directory, each timed from `Engine::recover` through a
/// new server to the first answered query. The first recovered state is
/// checked against the ledger or the reference join.
fn recover(
    ctx: &Ctx,
    stack: Stack,
    conns: Vec<Conn>,
    log_dir: &Path,
    extra: &Ledger,
) -> Result<RecoveryOut, String> {
    let w = ctx.w;
    stack
        .engine
        .checkpoint_now()
        .map_err(|e| format!("checkpoint_now: {e}"))?;
    let mut conns = conns;
    if w.has_acct() {
        let writer = conns.remove(0);
        let (mut back, out) = drive::run_phase(
            vec![writer],
            Duration::ZERO,
            Some(POST_CHECKPOINT_TRANSFERS),
            false,
            ctx.epoch,
            &ctx.reference,
        );
        if out.failed > 0 || !out.wrong.is_empty() {
            return Err(format!("post-checkpoint transfers failed: {:?}", out.wrong));
        }
        conns.insert(0, back.remove(0));
    }
    let ledger = merged_ledger(&conns, extra);
    drop(conns);
    stack
        .server
        .shutdown()
        .map_err(|e| format!("server shutdown: {e}"))?;
    stack.engine.crash().map_err(|e| format!("crash: {e}"))?;
    let copies: Vec<PathBuf> = (0..RECOVERY_REPEATS)
        .map(|i| ctx.root.join(format!("recover-{i}")))
        .collect();
    for c in &copies {
        copy_dir(log_dir, c)?;
    }
    let mut times = Vec::new();
    let mut engine_us = Vec::new();
    let mut first = None;
    for (i, dir) in copies.iter().enumerate() {
        let t0 = Instant::now();
        let (engine, info) =
            Engine::recover(engine_options(dir)).map_err(|e| format!("recover: {e}"))?;
        engine_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let (server, addr) = start_server(&engine)?;
        let mut client = drive::connect(addr)?;
        let probe = if w.has_acct() {
            "SELECT bal FROM acct WHERE id = 1"
        } else {
            "SELECT floor FROM dept WHERE did = 1"
        };
        let rows = client
            .query(probe)
            .map_err(|e| format!("first query after recovery: {e}"))?;
        times.push(t0.elapsed().as_secs_f64());
        if rows.len() != 1 {
            return Err(format!(
                "first query after recovery returned {} rows",
                rows.len()
            ));
        }
        drop(client);
        if i == 0 {
            let verdict = check_state(w, addr, &ledger, &ctx.reference)
                .map_err(|e| format!("after recovery: {e}"));
            first = Some((info, verdict));
        }
        let stack = Stack {
            engine,
            server,
            addr,
        };
        stop(stack)?;
        let _ = std::fs::remove_dir_all(dir);
    }
    let (info, verdict) = first.ok_or("no recovery ran")?;
    Ok(RecoveryOut {
        recovery_s: median(&times),
        times_s: times,
        engine_us: median(&engine_us),
        info,
        verdict,
    })
}

/// Metric list under construction: `(name, value, unit)`.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn summary_json(s: &Summary) -> String {
    let tail = match s.tail {
        Some((p, v)) => format!("{{\"pct\": {p}, \"ms\": {v}}}"),
        None => "null".to_string(),
    };
    format!(
        "{{\"n\": {}, \"p{FAST_PCT}_ms\": {}, \"p{FAST_PCT}_supported\": {}, \"p50_ms\": {}, \"p{}_ms\": {}, \"p{}_supported\": {}, \"highest_supported_tail\": {tail}}}",
        s.n, s.fast, s.fast_supported, s.p50, s.fixed_tail_pct, s.fixed_tail, s.fixed_tail_pct, s.fixed_tail_supported
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Deliberately never joined: it ends with the process.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(Failure::Setup(e)) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        Err(Failure::Oracle {
            msg,
            attempted,
            failed,
        }) => {
            eprintln!("perfbench: output oracle failed: {msg}");
            println!(
                "{{\"correct\": false, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{}}}}",
                attempted.max(1)
            );
            std::process::exit(1);
        }
    }
}

enum Failure {
    Setup(String),
    Oracle {
        msg: String,
        attempted: u64,
        failed: u64,
    },
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Setup(e)
    }
}

fn run(args: &Args) -> Result<String, Failure> {
    let w = args.workload;
    let epoch = Instant::now();
    let root = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let _cleanup = RunDir(root.clone());
    let data = JoinData::generate(args.seed);
    let reference = Arc::new(if w.has_acct() {
        Vec::new()
    } else {
        reference_join(&data)
    });

    let ctx = Ctx {
        w,
        root: root.clone(),
        epoch,
        reference: Arc::clone(&reference),
    };

    // Set up several times; the last set-up serves the run.
    let mut setups = Vec::new();
    let mut kept = None;
    let mut rss_mb = 0.0;
    for i in 0..SETUP_REPEATS {
        let opts = engine_options(&root.join(format!("engine-{i}")));
        attest(&opts)?;
        let s = setup(w, opts, &data)?;
        if i == 0 {
            // Peak memory once every row is loaded the first time: the
            // data's footprint in the engine and in the SQL layer. Later
            // peaks also hold checkpoint images and whatever the
            // allocator kept from earlier set-ups, and both depend on
            // timing, so they vary with machine load.
            rss_mb = sysinfo::peak_rss_mb();
        }
        setups.push((s.total_s, s.insert_s, s.rows));
        if i + 1 == SETUP_REPEATS {
            kept = Some(s.stack);
        } else {
            stop(s.stack)?;
            let _ = std::fs::remove_dir_all(root.join(format!("engine-{i}")));
        }
    }
    let stack = kept.ok_or_else(|| "no set-up ran".to_string())?;
    let log_dir = root.join(format!("engine-{}", SETUP_REPEATS - 1));
    let options = engine_options(&log_dir);
    let setup_s = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let load_rows_per_s = median(&setups.iter().map(|s| s.2 as f64 / s.1).collect::<Vec<_>>());

    let mut conns = Vec::new();
    for (lane, role) in w.roles().iter().enumerate() {
        conns.push(Conn::open(stack.addr, *role, lane as u64, args.seed)?);
    }
    let (conns, warm) = drive::run_phase(conns, WARMUP, None, false, epoch, &reference);
    let mut attempted = 0;
    let mut failed = 0;
    let mut wrong = warm.wrong;

    // The timed phase: untraced for the whole run, or an untraced half
    // followed by a traced half.
    let dur = Duration::from_secs_f64(args.seconds);
    let before = Snap::take(&stack.engine, &log_dir);
    let (conns, untraced, traced, mid) = if args.trace {
        let (conns, u) = drive::run_phase(conns, dur / 2, None, false, epoch, &reference);
        let mid = Snap::take(&stack.engine, &log_dir);
        let (conns, t) = drive::run_phase(conns, dur / 2, None, true, epoch, &reference);
        (conns, u, Some(t), Some(mid))
    } else {
        let (conns, u) = drive::run_phase(conns, dur, None, false, epoch, &reference);
        (conns, u, None, None)
    };
    let after = Snap::take(&stack.engine, &log_dir);
    for p in std::iter::once(&untraced).chain(traced.as_ref()) {
        attempted += p.attempted;
        failed += p.failed;
        wrong.extend(p.wrong.iter().cloned());
    }
    let oracle_fail = |msg: String| Failure::Oracle {
        msg,
        attempted,
        failed,
    };
    if !wrong.is_empty() {
        let first: Vec<&str> = wrong.iter().take(3).map(String::as_str).collect();
        return Err(oracle_fail(format!(
            "{} wrong results, first: {}",
            wrong.len(),
            first.join("; ")
        )));
    }
    check_state(
        w,
        stack.addr,
        &merged_ledger(&conns, &Ledger::default()),
        &reference,
    )
    .map_err(oracle_fail)?;

    let op = Summary::of(&untraced.op_ms, REPORT_TAIL);
    let read = Summary::of(&untraced.read_ms, REPORT_TAIL);
    let op_per_s = op.n as f64 / untraced.elapsed_s;
    let op_tail = windowed_tail(&untraced);

    // Traced run only: the in-process layer harnesses, between the timed
    // phase and the recovery procedure.
    let mut extra = Ledger::default();
    let mut layers_out = None;
    let (stack, conns) = if args.trace {
        extra = merged_ledger(&conns, &extra);
        drop(conns);
        stack
            .server
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}"))?;
        let joins = (!w.has_acct()).then(|| reference.as_slice());
        let sql = layers::sql_layer(
            &stack.engine,
            w.has_acct(),
            w == Workload::Mixed,
            joins,
            args.seed,
            &mut extra,
            epoch,
        )
        .map_err(oracle_fail)?;
        let plan = match w {
            Workload::Join => {
                Some(layers::plan_exec_join(&data, &reference, epoch).map_err(oracle_fail)?)
            }
            Workload::Mixed => {
                Some(layers::plan_exec_point(args.seed, epoch).map_err(oracle_fail)?)
            }
            Workload::Transfer => None,
        };
        let raw = if w.has_acct() {
            let raw_opts = engine_options(&root.join("raw-engine"));
            attest(&raw_opts)?;
            Some(layers::raw_engine(raw_opts, args.seed, epoch).map_err(oracle_fail)?)
        } else {
            None
        };
        layers_out = Some((sql, plan, raw));
        let (server, addr) = start_server(&stack.engine)?;
        let stack = Stack {
            engine: stack.engine,
            server,
            addr,
        };
        (stack, conns_reopen(w, addr, args.seed)?)
    } else {
        (stack, conns)
    };
    let rec = recover(&ctx, stack, conns, &log_dir, &extra)?;
    rec.verdict.clone().map_err(oracle_fail)?;

    let fs = sysinfo::filesystem_of(&root);
    // Share of the machine's CPU time stolen by the hypervisor during the
    // timed phase: context for reading the run's wall-clock numbers.
    let steal_frac = ratio(
        after.steal.0.saturating_sub(before.steal.0) as f64,
        after.steal.1.saturating_sub(before.steal.1) as f64,
    );
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"attestation\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
\"log_dir\": \".bench_run\", \"log_fs\": \"{fs}\", \"page_write_latency_us\": {}, \"lock_op_latency_us\": {}, \
\"flush_interval_us\": {}, \"checkpoint_interval_ms\": {}, \"shards\": {}, \"fault_plans\": {}, \
\"network_faults\": false, \"client_auto_retry\": false, \"build_profile\": \"{profile}\", \"cpu_steal_frac\": {steal_frac}}}, \
\"detail\": {{\"op_per_s\": {op_per_s}, \"op\": {}, \"read\": {}, \"op_p{OP_TAIL}_windowed_ms\": {}, \"op_windows\": {}, \"setup_s\": {:?}, \"recovery_s\": {:?}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        options.page_write_latency.as_micros(),
        options.lock_op_latency.as_micros(),
        options.flush_interval.as_micros(),
        options.checkpoint_interval.map_or(0, |d| d.as_millis()),
        options.shard_count(),
        options.fault_plans.len(),
        summary_json(&op),
        summary_json(&read),
        op_tail.0,
        op_tail.1,
        setups.iter().map(|s| s.0).collect::<Vec<_>>(),
        rec.times_s,
    );

    let mut m = Metrics::default();
    match (&layers_out, traced, mid) {
        (Some((sql, plan, raw)), Some(traced), Some(mid)) => {
            per_layer(
                &mut m,
                &PerLayer {
                    before: &before,
                    mid: &mid,
                    after: &after,
                    untraced: &untraced,
                    traced: &traced,
                    sql,
                    plan: plan.as_ref(),
                    raw: raw.as_ref(),
                    rec: &rec,
                    load_rows_per_s,
                    attempted,
                    failed,
                },
            );
            let mut spans = traced.spans;
            spans.extend(sql.spans.iter().cloned());
            if let Some(p) = plan {
                spans.extend(p.spans.iter().cloned());
            }
            if let Some(r) = raw {
                spans.extend(r.spans.iter().cloned());
            }
            let path = PathBuf::from(".bench_run").join("spans").join(format!(
                "{}-seed{}.jsonl",
                w.name(),
                args.seed
            ));
            trace::write_spans(&path, &spans).map_err(|e| format!("write spans: {e}"))?;
        }
        _ => {
            m.put("op_p1_ms", op.fast, "ms");
            m.put("setup_s", setup_s, "s");
            m.put("rss_mb", rss_mb, "MiB");
        }
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        m.json()
    ))
}

/// The windowed tail: the median, over windows of consecutive operations
/// each holding at least ten samples beyond the percentile, of the
/// window's [`OP_TAIL`] percentile. Returns it with the window count;
/// without a full window it falls back to the whole phase's percentile.
fn windowed_tail(phase: &PhaseOut) -> (f64, usize) {
    let samples: Vec<(u64, f64)> = phase
        .op_at
        .iter()
        .copied()
        .zip(phase.op_ms.iter().copied())
        .collect();
    let windows = samples.len() / stats::window_len(OP_TAIL);
    match stats::windowed(&samples, OP_TAIL) {
        Some(tail) => (tail, windows),
        None => (Summary::of(&phase.op_ms, OP_TAIL).fixed_tail, 0),
    }
}

fn conns_reopen(w: Workload, addr: SocketAddr, seed: u64) -> Result<Vec<Conn>, String> {
    w.roles()
        .iter()
        .enumerate()
        .map(|(lane, role)| Conn::open(addr, *role, 10 + lane as u64, seed))
        .collect()
}

struct PerLayer<'a> {
    before: &'a Snap,
    mid: &'a Snap,
    after: &'a Snap,
    untraced: &'a PhaseOut,
    traced: &'a PhaseOut,
    sql: &'a layers::SqlLayer,
    plan: Option<&'a layers::PlanExec>,
    raw: Option<&'a layers::RawEngine>,
    rec: &'a RecoveryOut,
    load_rows_per_s: f64,
    attempted: u64,
    failed: u64,
}

/// The traced run's per-layer metrics.
fn per_layer(m: &mut Metrics, p: &PerLayer) {
    // Server: client round trip vs. server-side handling, traced half.
    let traced_d = Delta {
        a: &p.mid.stats,
        b: &p.after.stats,
    };
    let whole = Delta {
        a: &p.before.stats,
        b: &p.after.stats,
    };
    let rtt_us = ratio(p.traced.execute_ns as f64, p.traced.executes as f64) / 1e3;
    let handle_us = traced_d.hist_mean("mmdb_server_request_latency_us");
    m.put("server.rtt_us", rtt_us, "us");
    m.put("server.handle_us", handle_us, "us");
    m.put("server.wire_us", rtt_us - handle_us, "us");
    m.put(
        "server.admission_wait_us",
        whole.hist_mean("mmdb_server_admission_wait_us"),
        "us",
    );
    m.put(
        "server.shed_count",
        whole.counter("mmdb_server_shed_total"),
        "count",
    );
    m.put(
        "server.retryable_count",
        whole.counter("mmdb_server_retryable_errors_total"),
        "count",
    );

    // SQL, in process.
    let select_us = p.sql.select.us();
    let (optimize_us, join_us) = p
        .plan
        .map_or((0.0, 0.0), |x| (x.optimize.us(), x.join.us()));
    m.put("sql.parse_us", p.sql.parse.us(), "us");
    m.put("sql.update_us", p.sql.update.us(), "us");
    m.put("sql.commit_us", p.sql.commit.us(), "us");
    m.put("sql.select_us", select_us, "us");
    m.put(
        "sql.select_rest_us",
        if p.sql.select.count == 0 {
            0.0
        } else {
            select_us - optimize_us - join_us
        },
        "us",
    );
    m.put("sql.open_us", p.sql.open_us, "us");
    m.put("sql.load_rows_per_s", p.load_rows_per_s, "1/s");

    // Planner and exec, on the benchmark's own relations.
    m.put("planner.optimize_us", optimize_us, "us");
    m.put("exec.join_us", join_us, "us");
    let per_q = |f: fn(&layers::PlanExec) -> u64| p.plan.map_or(0.0, |x| x.per_query(f(x)));
    m.put("exec.comparisons", per_q(|x| x.comparisons), "count");
    m.put("exec.hashes", per_q(|x| x.hashes), "count");
    m.put("exec.moves", per_q(|x| x.moves), "count");

    // Engine operations, raw-engine harness.
    let raw = |f: fn(&layers::RawEngine) -> f64| p.raw.map_or(0.0, f);
    m.put("session.lock_us", raw(|r| r.lock.us()), "us");
    m.put("session.write_us", raw(|r| r.write.us()), "us");
    m.put("session.commit_us", raw(|r| r.commit.us()), "us");
    m.put(
        "session.durable_wait_us",
        raw(|r| r.durable_wait.us()),
        "us",
    );

    // Engine counters over the whole timed phase.
    let commits = whole.counter("mmdb_session_commits_total");
    m.put(
        "session.lock_wait_us",
        ratio(whole.hist("mmdb_session_lock_wait_us").1, commits),
        "us",
    );
    m.put(
        "session.abort_count",
        whole.counter("mmdb_session_aborts_total"),
        "count",
    );
    m.put(
        "session.deadlock_abort_count",
        whole.counter("mmdb_session_deadlock_aborts_total"),
        "count",
    );
    m.put(
        "session.batch_txns",
        whole.hist_mean("mmdb_session_commit_batch_txns"),
        "count",
    );
    m.put(
        "session.pages_per_txn",
        ratio(whole.counter("mmdb_session_pages_written_total"), commits),
        "count",
    );
    m.put(
        "session.fsync_us",
        whole.hist_mean("mmdb_session_fsync_us"),
        "us",
    );
    m.put(
        "session.fsync_count",
        whole.hist("mmdb_session_fsync_us").0,
        "count",
    );
    m.put(
        "session.log_bytes_per_txn",
        ratio(
            p.after
                .live_log_bytes
                .saturating_sub(p.before.live_log_bytes) as f64,
            commits,
        ),
        "B",
    );
    m.put(
        "checkpoint.sweeps",
        whole.counter("mmdb_session_checkpoints_total"),
        "count",
    );
    m.put(
        "checkpoint.busy_us",
        whole.hist("mmdb_session_checkpoint_duration_us").1,
        "us",
    );
    m.put(
        "checkpoint.bytes",
        p.after
            .stats
            .gauge("mmdb_session_checkpoint_bytes")
            .unwrap_or(0) as f64,
        "B",
    );
    m.put(
        "checkpoint.rewritten",
        p.after
            .stats
            .gauge("mmdb_session_checkpoint_rewritten_count")
            .unwrap_or(0) as f64,
        "count",
    );

    // Recovery.
    m.put("recover.total_ms", p.rec.recovery_s * 1e3, "ms");
    m.put("recover.engine_us", p.rec.engine_us, "us");
    m.put(
        "recover.log_bytes_replayed",
        p.rec.info.log_bytes_replayed as f64,
        "B",
    );
    m.put(
        "recover.records_scanned",
        p.rec.info.records_scanned as f64,
        "count",
    );
    m.put(
        "recover.records_replayed",
        p.rec.info.records_replayed as f64,
        "count",
    );

    // Process CPU per transaction, query or read, both halves.
    let ops = (p.untraced.op_ms.len()
        + p.untraced.read_ms.len()
        + p.traced.op_ms.len()
        + p.traced.read_ms.len()) as f64;
    m.put(
        "proc.cpu_us_per_op",
        ratio(p.after.cpu_us.saturating_sub(p.before.cpu_us) as f64, ops),
        "us",
    );

    // Rate and tails of the transaction or query stream (untraced half):
    // the windowed p95 and the whole half's p99. Its median is
    // `trace.untraced_op_p50_ms` below.
    let op = Summary::of(&p.untraced.op_ms, REPORT_TAIL);
    m.put("op.per_s", op.n as f64 / p.untraced.elapsed_s, "1/s");
    m.put("op.p95_ms", windowed_tail(p.untraced).0, "ms");
    m.put("op.p99_ms", op.fixed_tail, "ms");

    // The point-read stream of `mixed` (untraced half), and failures.
    let read = Summary::of(&p.untraced.read_ms, REPORT_TAIL);
    m.put("read.per_s", read.n as f64 / p.untraced.elapsed_s, "1/s");
    m.put("read.p50_ms", read.p50, "ms");
    m.put("read.p99_ms", read.fixed_tail, "ms");
    m.put(
        "failed_frac",
        ratio(p.failed as f64, p.attempted as f64),
        "frac",
    );

    // Trace reduction: self time per layer, coverage, and overhead.
    let times = trace::self_times(&p.traced.spans);
    let root_names = ["client.txn", "client.query", "client.read"];
    let roots: (u64, u64, u64) = root_names
        .iter()
        .filter_map(|n| times.get(n))
        .fold((0, 0, 0), |acc, t| {
            (acc.0 + t.count, acc.1 + t.total_ns, acc.2 + t.self_ns)
        });
    m.put(
        "span.coverage",
        ratio((roots.1 - roots.2) as f64, roots.1 as f64),
        "frac",
    );
    m.put(
        "self.client_us",
        ratio(roots.2 as f64, roots.0 as f64) / 1e3,
        "us",
    );
    let per_root = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |t| ratio(t.self_ns as f64, roots.0 as f64) / 1e3)
    };
    m.put("self.execute_us", per_root("server.execute"), "us");
    let sql_times = trace::self_times(&p.sql.spans);
    let sql_ops: u64 = ["sql.txn", "sql.read", "sql.query"]
        .iter()
        .filter_map(|n| sql_times.get(n))
        .map(|t| t.count)
        .sum();
    let sql_self = |name: &str| {
        sql_times
            .get(name)
            .map_or(0.0, |t| ratio(t.self_ns as f64, sql_ops as f64) / 1e3)
    };
    m.put("self.sql_parse_us", sql_self("sql.parse"), "us");
    m.put("self.sql_run_us", sql_self("sql.run"), "us");
    let plan_times = p.plan.map(|x| (trace::self_times(&x.spans), x.queries));
    let plan_self = |name: &str| {
        plan_times.as_ref().map_or(0.0, |(t, q)| {
            t.get(name)
                .map_or(0.0, |t| ratio(t.self_ns as f64, *q as f64) / 1e3)
        })
    };
    m.put("self.planner_us", plan_self("planner.optimize"), "us");
    m.put("self.exec_join_us", plan_self("exec.run_join"), "us");
    m.put("self.exec_rest_us", plan_self("plan.query"), "us");
    let raw_times = p.raw.map(|r| trace::self_times(&r.spans));
    let raw_txns = raw_times
        .as_ref()
        .and_then(|t| t.get("raw.txn"))
        .map_or(0, |t| t.count);
    let session_ns: u64 = raw_times.as_ref().map_or(0, |t| {
        t.iter()
            .filter(|(n, _)| n.starts_with("session."))
            .map(|(_, t)| t.self_ns)
            .sum()
    });
    m.put(
        "self.session_us",
        ratio(session_ns as f64, raw_txns as f64) / 1e3,
        "us",
    );

    let traced_op = Summary::of(&p.traced.op_ms, REPORT_TAIL);
    let untraced_op = Summary::of(&p.untraced.op_ms, REPORT_TAIL);
    m.put("trace.untraced_op_p50_ms", untraced_op.p50, "ms");
    m.put("trace.traced_op_p50_ms", traced_op.p50, "ms");
    m.put(
        "trace.overhead_op_p50_ms",
        traced_op.p50 - untraced_op.p50,
        "ms",
    );
    m.put(
        "trace.overhead_op_per_s",
        traced_op.n as f64 / p.traced.elapsed_s - untraced_op.n as f64 / p.untraced.elapsed_s,
        "1/s",
    );
}
