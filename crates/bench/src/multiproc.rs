//! Multi-process elastic training: the `repro worker` / `repro launch`
//! subcommands.
//!
//! `repro launch` is a minimal Horovod-style driver: it hosts the
//! rendezvous [`StoreServer`], spawns `n` *real* worker processes (each
//! running `repro worker`), and audits their result files afterwards. Each
//! worker binds a socket listener, publishes its address in the store,
//! discovers its peers, establishes the full mesh, and trains under
//! forward recovery on its own [`Universe`].
//!
//! Scripted deaths are real deaths: when a worker's fault plan fires, a
//! watcher thread SIGKILLs the worker's own process, so the surviving
//! processes observe a genuine kernel-level connection reset (EOF) — not a
//! simulated flag — and recover via revoke → agree → shrink.

use elastic::{run_forward_worker, ForwardConfig, TrainSpec, WorkerExit};
use gloo::{KvStore, NetStore, Store, StoreServer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::{Backend, BackendKind, Endpoint, FaultInjector, FaultPlan, RankId, Topology};
use ulfm::Universe;

/// How long address exchange and process waits may take before giving up.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(60);

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        if let Some((k, v)) = name.split_once('=') {
            flags.insert(k.to_string(), v.to_string());
        } else {
            let v = it
                .next()
                .ok_or_else(|| format!("--{name} requires a value"))?;
            flags.insert(name.to_string(), v.clone());
        }
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse `{v}`")),
    }
}

fn backend_kind(transport: &str) -> Result<BackendKind, String> {
    match transport {
        "tcp" => Ok(BackendKind::Tcp),
        "unix" => Ok(BackendKind::Unix),
        other => Err(format!("--transport must be tcp or unix, got `{other}`")),
    }
}

fn agree_impl(name: &str) -> Result<ulfm::AgreeImpl, String> {
    match name {
        "flood" => Ok(ulfm::AgreeImpl::Flood),
        "lattice" => Ok(ulfm::AgreeImpl::Lattice),
        other => Err(format!("--agree must be flood or lattice, got `{other}`")),
    }
}

/// Parse a death schedule: comma-separated `rank@point:occurrence`, e.g.
/// `1@allreduce.step:5,2@shrink.attempt:1`.
fn parse_die_spec(spec: &str) -> Result<Vec<(usize, String, u64)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let (rank, rest) = entry
            .split_once('@')
            .ok_or_else(|| format!("die entry `{entry}` is not rank@point:occurrence"))?;
        let (point, occ) = rest
            .split_once(':')
            .ok_or_else(|| format!("die entry `{entry}` is not rank@point:occurrence"))?;
        out.push((
            rank.parse()
                .map_err(|_| format!("die rank `{rank}` is not a number"))?,
            point.to_string(),
            occ.parse()
                .map_err(|_| format!("die occurrence `{occ}` is not a number"))?,
        ));
    }
    Ok(out)
}

/// Parse a joiner-spawn schedule: comma-separated `rank@step`, e.g.
/// `3@2,4@5` — spawn a joiner process with rank 3 once any worker reports
/// step 2, and rank 4 at step 5.
fn parse_spawn_spec(spec: &str) -> Result<Vec<(usize, u64)>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').filter(|s| !s.is_empty()) {
        let (rank, step) = entry
            .split_once('@')
            .ok_or_else(|| format!("spawn entry `{entry}` is not rank@step"))?;
        out.push((
            rank.parse()
                .map_err(|_| format!("spawn rank `{rank}` is not a number"))?,
            step.parse()
                .map_err(|_| format!("spawn step `{step}` is not a number"))?,
        ));
    }
    Ok(out)
}

fn fault_plan_from(die: &[(usize, String, u64)]) -> FaultPlan {
    die.iter()
        .fold(FaultPlan::none(), |plan, (rank, point, occ)| {
            plan.kill_at_point(RankId(*rank), point.clone(), *occ)
        })
}

/// Retry a transiently-failing store operation until it succeeds or the
/// deadline passes (the rendezvous server may not have finished binding
/// when the first worker dials it).
fn store_retry<T>(
    deadline: Instant,
    what: &str,
    mut op: impl FnMut() -> Result<T, gloo::StoreUnavailable>,
) -> Result<T, String> {
    let mut backoff = Duration::from_millis(1);
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
            Err(_) => return Err(format!("store unavailable past deadline during {what}")),
        }
    }
}

/// `repro worker` — one rank of a multi-process run. Not intended to be
/// invoked by hand; `repro launch` passes every flag.
pub fn worker_main(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let rank: usize = flag(&flags, "rank", usize::MAX)?;
    let world: usize = flag(&flags, "world", 0)?;
    let is_joiner = flag::<usize>(&flags, "joiner", 0)? != 0;
    if !is_joiner && rank >= world {
        return Err(format!("--rank {rank} outside --world {world}"));
    }
    if is_joiner && rank < world {
        return Err(format!(
            "joiner --rank {rank} collides with initial world {world}"
        ));
    }
    let store_addr = flags
        .get("store")
        .ok_or("--store <host:port> is required")?
        .clone();
    let run_id = flags.get("run-id").cloned().unwrap_or_default();
    let outdir = flags.get("outdir").cloned().unwrap_or_else(|| ".".into());
    let kind = backend_kind(flags.get("transport").map_or("tcp", |s| s.as_str()))?;
    let steps: usize = flag(&flags, "steps", 16)?;
    let min_workers: usize = flag(&flags, "min-workers", 1)?;
    let suspicion_ms: u64 = flag(&flags, "suspicion-ms", 2000)?;
    let expect_joiners: usize = flag(&flags, "expect-joiners", 0)?;
    let join_wait_secs: u64 = flag(&flags, "join-wait-secs", 30)?;
    let agree = agree_impl(flags.get("agree").map_or("flood", |s| s.as_str()))?;
    let die = parse_die_spec(flags.get("die").map_or("", |s| s.as_str()))?;

    // Address exchange through the rendezvous store: members publish their
    // listener address, then everyone (members and late joiners alike)
    // polls until all of ranks `0..world` are present. The check is
    // *scan*-based, not count-based: joiner announce keys and spare
    // processes publish under the same run prefix, so a raw key count can
    // reach `world` while an initial member is still missing.
    let store = NetStore::connect(store_addr);
    let listener = transport::SocketBackend::bind(kind).map_err(|e| format!("bind: {e}"))?;
    let contact = listener.addr().to_string();
    let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
    let prefix = format!("{run_id}/addr/");
    if !is_joiner {
        store_retry(deadline, "address publish", || {
            store.try_set(&format!("{prefix}{rank:08}"), contact.as_bytes().to_vec())
        })?;
    }
    let peer_addrs: Vec<String> = loop {
        let pairs = store_retry(deadline, "address scan", || store.try_scan_prefix(&prefix))?;
        let mut addrs: Vec<Option<String>> = vec![None; world];
        for (key, value) in pairs {
            if let Ok(peer) = key[prefix.len()..].parse::<usize>() {
                if peer < world {
                    addrs[peer] = Some(
                        String::from_utf8(value)
                            .map_err(|_| format!("non-utf8 address under `{key}`"))?,
                    );
                }
            }
        }
        let present = addrs.iter().filter(|a| a.is_some()).count();
        if present >= world {
            break addrs.into_iter().map(|a| a.expect("checked")).collect();
        }
        if Instant::now() >= deadline {
            return Err(format!("only {present}/{world} workers arrived"));
        }
        std::thread::sleep(Duration::from_millis(5));
    };

    let injector = FaultInjector::new(fault_plan_from(&die));
    let backend = if is_joiner {
        // A joiner dials every initial member that still answers; members
        // that died before we spawned fail the dial instantly (their
        // listener is gone) and are marked dead rather than retried.
        let member_addrs: Vec<(RankId, String)> = peer_addrs
            .iter()
            .enumerate()
            .map(|(p, a)| (RankId(p), a.clone()))
            .collect();
        transport::SocketBackend::establish_joiner(
            RankId(rank),
            Topology::flat(),
            listener,
            &member_addrs,
            injector,
            Duration::from_secs(10),
        )
        .map_err(|e| format!("joiner establish: {e}"))?
    } else {
        transport::SocketBackend::establish(
            RankId(rank),
            Topology::flat(),
            listener,
            &peer_addrs,
            injector,
            Duration::from_secs(20),
        )
        .map_err(|e| format!("mesh establish: {e}"))?
    };
    backend.set_suspicion_timeout(Some(Duration::from_millis(suspicion_ms)));

    // Scripted deaths must be real: the moment the fault plan kills this
    // rank abruptly, SIGKILL our own process so peers see a kernel-closed
    // socket, exactly like an OOM kill or node loss would produce. Only
    // *abrupt* deaths count — a voluntary retirement at the end of training
    // also drops the alive flag, and the process must survive it to report.
    let watcher = Arc::clone(&backend);
    std::thread::Builder::new()
        .name("hard-death".into())
        .spawn(move || loop {
            if watcher.hard_died() {
                let pid = std::process::id().to_string();
                let killed = std::process::Command::new("kill")
                    .args(["-9", &pid])
                    .status()
                    .or_else(|_| {
                        std::process::Command::new("/usr/bin/kill")
                            .args(["-9", &pid])
                            .status()
                    });
                // If no `kill` binary exists, abort is the closest thing.
                if killed.is_err() {
                    std::process::abort();
                }
                std::thread::sleep(Duration::from_secs(5));
                std::process::abort(); // the SIGKILL should have landed
            }
            std::thread::sleep(Duration::from_micros(200));
        })
        .map_err(|e| format!("spawn watcher: {e}"))?;

    // Progress beacon for the launcher: the current step count, republished
    // under `{run}/step/{rank}` so `--spawn RANK@STEP` triggers can fire
    // when the group reaches a scripted step. Best-effort — a missed write
    // only delays a trigger by one poll.
    let step_store = store.clone();
    let step_key = format!("{run_id}/step/{rank:08}");
    std::thread::Builder::new()
        .name("step-pub".into())
        .spawn(move || loop {
            let s = telemetry::counter("elastic.forward.steps").get();
            let _ = step_store.try_set(&step_key, s.to_le_bytes().to_vec());
            std::thread::sleep(Duration::from_millis(25));
        })
        .map_err(|e| format!("spawn step publisher: {e}"))?;

    // Cross-process join rendezvous: the same store carries announce/ticket
    // keys; member addresses are already under `{run}/addr/` from the
    // rendezvous above, which is exactly where `NetJoin::contact` looks.
    let join = ulfm::NetJoin::new(store.clone(), format!("{run_id}/")).with_contact(contact);
    let ep = Endpoint::from_backend(Arc::clone(&backend) as Arc<dyn Backend>);
    let (_universe, proc) = if is_joiner {
        Universe::joiner_for_backend(ep, Arc::new(join))
    } else {
        let group: Vec<RankId> = (0..world).map(RankId).collect();
        Universe::for_backend_with_join(ep, group, Arc::new(join))
    };
    let fwd = ForwardConfig {
        expected_joiners: expect_joiners,
        // Bounded waits everywhere: a joiner that never gets its ticket
        // exits instead of hanging, and members give up on a joiner that
        // never announces instead of stalling the epoch boundary.
        join_wait: Some(Duration::from_secs(join_wait_secs)),
        ..ForwardConfig::new(TrainSpec {
            total_steps: steps,
            min_workers,
            agree,
            ..TrainSpec::default()
        })
    };
    let out = run_forward_worker(&proc, &fwd, is_joiner);

    let (label, stats) = match &out.exit {
        WorkerExit::Completed(s) => ("completed", Some(s)),
        WorkerExit::Excluded(s) => ("excluded", Some(s)),
        WorkerExit::Aborted(s) => ("aborted", Some(s)),
        WorkerExit::Died => ("died", None),
    };
    let line = match stats {
        Some(s) => format!(
            "exit={label} fp={:016x} steps={} world={} recoveries={}\n",
            s.state_fingerprint, s.steps_done, s.final_world, s.recoveries
        ),
        None => format!("exit={label}\n"),
    };
    std::fs::create_dir_all(&outdir).map_err(|e| format!("create {outdir}: {e}"))?;
    std::fs::write(format!("{outdir}/result-{rank}.txt"), line)
        .map_err(|e| format!("write result: {e}"))?;
    std::fs::write(
        format!("{outdir}/telemetry-{rank}.json"),
        telemetry::snapshot().to_json(),
    )
    .map_err(|e| format!("write telemetry: {e}"))?;
    backend.shutdown();
    Ok(())
}

/// One worker's audited outcome, parsed back from its result file.
struct WorkerReport {
    exit: String,
    fingerprint: Option<u64>,
    detail: String,
}

fn read_report(outdir: &str, rank: usize) -> WorkerReport {
    let path = format!("{outdir}/result-{rank}.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return WorkerReport {
            exit: "no-result".into(),
            fingerprint: None,
            detail: "(process never reported — killed)".into(),
        };
    };
    let mut exit = "unparsed".to_string();
    let mut fingerprint = None;
    for token in text.split_whitespace() {
        if let Some(v) = token.strip_prefix("exit=") {
            exit = v.to_string();
        } else if let Some(v) = token.strip_prefix("fp=") {
            fingerprint = u64::from_str_radix(v, 16).ok();
        }
    }
    WorkerReport {
        exit,
        fingerprint,
        detail: text.trim().to_string(),
    }
}

/// `repro launch` — spawn and audit a multi-process elastic run. Returns
/// the process exit code.
pub fn launch_main(args: &[String]) -> Result<i32, String> {
    let flags = parse_flags(args)?;
    let world: usize = flag(&flags, "n", 3)?;
    let transport = flags
        .get("transport")
        .cloned()
        .unwrap_or_else(|| "tcp".into());
    backend_kind(&transport)?; // validate before spawning anything
    let steps: usize = flag(&flags, "steps", 16)?;
    let min_workers: usize = flag(&flags, "min-workers", 1)?;
    let suspicion_ms: u64 = flag(&flags, "suspicion-ms", 2000)?;
    let agree_name = flags
        .get("agree")
        .cloned()
        .unwrap_or_else(|| "flood".into());
    agree_impl(&agree_name)?; // validate before spawning anything
    let timeout_secs: u64 = flag(&flags, "timeout-secs", 120)?;
    let die_spec = flags.get("die").cloned().unwrap_or_default();
    let die = parse_die_spec(&die_spec)?;
    let spares: usize = flag(&flags, "spares", 0)?;
    let spawn_spec = flags.get("spawn").cloned().unwrap_or_default();
    let spawns = parse_spawn_spec(&spawn_spec)?;
    // Spares take ranks `world..world+spares`; `--spawn` ranks are explicit
    // and must not collide with either range.
    for (r, _) in &spawns {
        if *r < world + spares {
            return Err(format!(
                "--spawn rank {r} collides with initial world {world} + {spares} spare(s)"
            ));
        }
    }
    let expect_joiners: usize = flag(&flags, "expect-joiners", spares + spawns.len())?;
    let join_wait_secs: u64 = flag(&flags, "join-wait-secs", 30)?;
    let outdir = flags
        .get("outdir")
        .cloned()
        .unwrap_or_else(|| "multiproc-out".into());
    std::fs::create_dir_all(&outdir).map_err(|e| format!("create {outdir}: {e}"))?;

    let server = StoreServer::spawn(KvStore::shared()).map_err(|e| format!("store server: {e}"))?;
    let run_id = format!("mp-{}", std::process::id());
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    println!(
        "launch: {world} workers over {transport}, store at {}, run id {run_id}",
        server.addr()
    );
    if !die.is_empty() {
        println!("launch: scripted deaths: {die_spec}");
    }

    let spawn_worker = |rank: usize, joiner: bool| -> Result<std::process::Child, String> {
        let log = std::fs::File::create(format!("{outdir}/worker-{rank}.log"))
            .map_err(|e| format!("create worker log: {e}"))?;
        std::process::Command::new(&exe)
            .args([
                "worker",
                "--store",
                server.addr(),
                "--rank",
                &rank.to_string(),
                "--world",
                &world.to_string(),
                "--joiner",
                if joiner { "1" } else { "0" },
                "--transport",
                &transport,
                "--run-id",
                &run_id,
                "--steps",
                &steps.to_string(),
                "--min-workers",
                &min_workers.to_string(),
                "--suspicion-ms",
                &suspicion_ms.to_string(),
                "--expect-joiners",
                &expect_joiners.to_string(),
                "--join-wait-secs",
                &join_wait_secs.to_string(),
                "--agree",
                &agree_name,
                "--die",
                &die_spec,
                "--outdir",
                &outdir,
            ])
            .stdout(std::process::Stdio::from(
                log.try_clone().map_err(|e| e.to_string())?,
            ))
            .stderr(std::process::Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn worker {rank}: {e}"))
    };

    let mut children = Vec::new();
    let mut joiner_ranks = Vec::new();
    for rank in 0..world {
        children.push((rank, spawn_worker(rank, false)?));
    }
    // Warm spares join immediately: they announce, then wait for the
    // group's next epoch boundary to admit them.
    for i in 0..spares {
        let rank = world + i;
        println!("launch: spawning spare joiner {rank}");
        children.push((rank, spawn_worker(rank, true)?));
        joiner_ranks.push(rank);
    }

    // Wait for every worker, firing scripted `--spawn` joiners when the
    // progress beacons reach their step, and SIGKILLing stragglers at the
    // deadline.
    let deadline = Instant::now() + Duration::from_secs(timeout_secs);
    let step_prefix = format!("{run_id}/step/");
    let mut pending = spawns;
    let mut timed_out = Vec::new();
    while !children.is_empty() || !pending.is_empty() {
        if !pending.is_empty() {
            // The launcher owns the store, so it reads the beacons directly.
            let step_now = server
                .store()
                .scan_prefix(&step_prefix)
                .iter()
                .filter_map(|(_, v)| Some(u64::from_le_bytes(v.as_slice().try_into().ok()?)))
                .max()
                .unwrap_or(0);
            let mut rest = Vec::new();
            for (rank, at_step) in pending {
                if step_now >= at_step {
                    println!("launch: step {step_now} reached — spawning joiner {rank}");
                    children.push((rank, spawn_worker(rank, true)?));
                    joiner_ranks.push(rank);
                } else {
                    rest.push((rank, at_step));
                }
            }
            pending = rest;
        }
        children.retain_mut(|(rank, child)| match child.try_wait() {
            Ok(Some(status)) => {
                println!("launch: worker {rank} exited: {status}");
                false
            }
            Ok(None) => true,
            Err(e) => {
                eprintln!("launch: wait on worker {rank}: {e}");
                false
            }
        });
        if children.is_empty() && !pending.is_empty() {
            for (rank, at_step) in &pending {
                eprintln!("launch: joiner {rank} never spawned (step {at_step} not reached)");
            }
            break;
        }
        if children.is_empty() {
            break;
        }
        if Instant::now() >= deadline {
            for (rank, child) in &mut children {
                eprintln!("launch: worker {rank} timed out, killing");
                let _ = child.kill();
                let _ = child.wait();
                timed_out.push(*rank);
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();

    // Audit: every non-victim — initial member or admitted joiner — must
    // complete with the same model fingerprint; every scripted victim must
    // *not* have completed. Joiners that were never spawned (their trigger
    // step was not reached) are not audited.
    let victims: Vec<usize> = die.iter().map(|(r, _, _)| *r).collect();
    let mut ok = timed_out.is_empty();
    let mut fingerprints = Vec::new();
    println!("\n rank | outcome");
    println!("------+---------");
    for rank in (0..world).chain(joiner_ranks) {
        let report = read_report(&outdir, rank);
        println!(" {rank:>4} | {}", report.detail);
        if victims.contains(&rank) {
            if report.exit == "completed" {
                eprintln!("launch: victim {rank} completed — fault never fired");
                ok = false;
            }
        } else if report.exit == "completed" {
            fingerprints.push((rank, report.fingerprint));
        } else {
            eprintln!("launch: survivor {rank} did not complete ({})", report.exit);
            ok = false;
        }
    }
    for pair in fingerprints.windows(2) {
        if pair[0].1 != pair[1].1 {
            eprintln!(
                "launch: replicas diverged: rank {} vs rank {}",
                pair[0].0, pair[1].0
            );
            ok = false;
        }
    }
    if ok {
        println!(
            "\nlaunch: OK — {} survivors hold identical replicas (telemetry in {outdir}/)",
            fingerprints.len()
        );
        Ok(0)
    } else {
        eprintln!("\nlaunch: FAILED — see {outdir}/worker-*.log");
        Ok(1)
    }
}
