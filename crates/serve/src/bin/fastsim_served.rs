//! `fastsim_served` — the standalone serving daemon.
//!
//! Binds the requested listeners, serves until a client sends
//! `{"op": "shutdown"}`, then writes the final metrics dump (to stdout,
//! and to `--metrics-file` if given).
//!
//! ```text
//! fastsim_served [--tcp ADDR] [--unix PATH] [--http ADDR] [--workers N]
//!                [--queue-cap N] [--refreeze-every N] [--timeout-ms N]
//!                [--max-attempts N] [--backoff-ms N] [--max-conns N]
//!                [--snapshot-dir PATH] [--journal-dir PATH]
//!                [--addr-file PATH] [--http-addr-file PATH]
//!                [--metrics-file PATH]
//! ```
//!
//! At least one of `--tcp` / `--unix` / `--http` is required.
//! `--tcp 127.0.0.1:0` picks a free port; `--addr-file` writes the bound
//! TCP address (or the Unix socket path) to a file so scripts can find
//! it. `--http` binds the HTTP/1.1 gateway (`POST /v1/jobs`,
//! `GET /v1/jobs/{id}`, `GET /v1/metrics`) on the same event loop;
//! `--http-addr-file` writes its bound address.
//!
//! `--snapshot-dir` roots the durable snapshot store: at boot the server
//! adopts the newest decodable snapshot of every warm-cache group (and
//! logs how many it loaded and rejected), and every re-freeze persists
//! the fresh snapshot, so a restarted daemon serves its first jobs warm.
//!
//! `--journal-dir` roots the `fastsim-journal/v1` write-ahead log: every
//! accepted submission is fsynced before it is acknowledged, and a
//! killed-and-restarted daemon replays unfinished jobs in their original
//! band and admission order (the boot line reports how many jobs were
//! recovered and rejected).

use fastsim_serve::server::{Listener, ServeConfig, Server};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut cfg = ServeConfig::default();
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut http: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut http_addr_file: Option<String> = None;
    let mut metrics_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--tcp" => tcp = Some(value("--tcp")),
            "--unix" => unix = Some(value("--unix")),
            "--http" => http = Some(value("--http")),
            "--workers" => cfg.workers = parse(&value("--workers"), "--workers"),
            "--queue-cap" => cfg.queue_capacity = parse(&value("--queue-cap"), "--queue-cap"),
            "--refreeze-every" => {
                cfg.refreeze_every = parse(&value("--refreeze-every"), "--refreeze-every")
            }
            "--timeout-ms" => {
                let ms: u64 = parse(&value("--timeout-ms"), "--timeout-ms");
                cfg.default_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-attempts" => cfg.max_attempts = parse(&value("--max-attempts"), "--max-attempts"),
            "--max-conns" => cfg.max_conns = parse(&value("--max-conns"), "--max-conns"),
            "--snapshot-dir" => {
                cfg.snapshot_dir = Some(value("--snapshot-dir").into());
            }
            "--journal-dir" => {
                cfg.journal_dir = Some(value("--journal-dir").into());
            }
            "--backoff-ms" => {
                cfg.backoff_base = Duration::from_millis(parse(&value("--backoff-ms"), "--backoff-ms"))
            }
            "--addr-file" => addr_file = Some(value("--addr-file")),
            "--http-addr-file" => http_addr_file = Some(value("--http-addr-file")),
            "--metrics-file" => metrics_file = Some(value("--metrics-file")),
            "--help" | "-h" => {
                println!(
                    "usage: fastsim_served [--tcp ADDR] [--unix PATH] [--http ADDR] [--workers N] \
                     [--queue-cap N] [--refreeze-every N] [--timeout-ms N] [--max-attempts N] \
                     [--backoff-ms N] [--max-conns N] [--snapshot-dir PATH] [--journal-dir PATH] \
                     [--addr-file PATH] [--http-addr-file PATH] [--metrics-file PATH]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let mut listeners = Vec::new();
    if let Some(addr) = &tcp {
        match Listener::tcp(addr) {
            Ok(l) => listeners.push(l),
            Err(e) => {
                eprintln!("cannot bind tcp {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(unix)]
    if let Some(path) = &unix {
        match Listener::unix(path) {
            Ok(l) => listeners.push(l),
            Err(e) => {
                eprintln!("cannot bind unix socket {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    #[cfg(not(unix))]
    if unix.is_some() {
        eprintln!("--unix is not supported on this platform");
        return ExitCode::from(2);
    }
    if let Some(addr) = &http {
        match Listener::http(addr) {
            Ok(l) => listeners.push(l),
            Err(e) => {
                eprintln!("cannot bind http {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if listeners.is_empty() {
        eprintln!(
            "nothing to listen on: pass --tcp ADDR, --unix PATH, and/or --http ADDR (try --help)"
        );
        return ExitCode::from(2);
    }

    let snapshot_dir = cfg.snapshot_dir.clone();
    let journal_dir = cfg.journal_dir.clone();
    let handle = Server::start(cfg, listeners);
    if let Some(dir) = &snapshot_dir {
        let (loads, rejected) = handle.snapshot_stats();
        eprintln!(
            "fastsim_served snapshot store {}: {loads} snapshot(s) adopted, {rejected} rejected",
            dir.display()
        );
    }
    if let Some(dir) = &journal_dir {
        let (recovered, rejected) = handle.journal_stats();
        eprintln!(
            "fastsim_served journal {}: {recovered} job(s) recovered, {rejected} rejected",
            dir.display()
        );
    }
    let endpoint = handle
        .tcp_addr()
        .map(|a| a.to_string())
        .or_else(|| handle.unix_path().map(|p| p.display().to_string()))
        .unwrap_or_default();
    eprintln!("fastsim_served listening on {endpoint}");
    if let Some(addr) = handle.http_addr() {
        eprintln!("fastsim_served http gateway on {addr}");
    }
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, &endpoint) {
            eprintln!("cannot write --addr-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &http_addr_file {
        let addr = handle.http_addr().map(|a| a.to_string()).unwrap_or_default();
        if let Err(e) = std::fs::write(path, &addr) {
            eprintln!("cannot write --http-addr-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Serve until a client shuts us down, then report.
    let final_metrics = handle.wait();
    println!("{final_metrics}");
    if let Some(path) = &metrics_file {
        if let Err(e) = std::fs::write(path, format!("{final_metrics}\n")) {
            eprintln!("cannot write --metrics-file {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse `{text}`");
        std::process::exit(2);
    })
}
