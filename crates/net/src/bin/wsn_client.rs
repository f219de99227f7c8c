//! `wsn_client` — scripting and test client for the `wsn-serve`
//! DSE-as-a-service server.
//!
//! Job commands (`run`, `simulate`, `faults`, `network`, `pareto`) take
//! the `wsn_dse` job commands' options — the same names, read by the
//! same front end ([`wsn_net::args::Args::request`]) into the same
//! request — submit one job over the newline-delimited JSON protocol
//! and print the job's **report document byte-for-byte** on stdout
//! (framing stripped), so `wsn_client run ... > a.json` can be `cmp`'d
//! against `wsn_dse run --json > b.json`. Failures print the server's
//! structured message on stderr and exit non-zero. `--id TAG` tags the
//! job and `--timeout-ms N` overrides the server's per-evaluation
//! budget for it.
//!
//! Control commands (`stats`, `ping`, `cancel --job N`, `shutdown`)
//! print the server's reply frame verbatim.
//!
//! `batch` reads raw request lines from stdin, streams every server
//! frame to stdout as it arrives, and exits once each submitted line
//! has reached its terminal frame — the deterministic load-generator
//! mode the soak and determinism tests drive.
//!
//! `--frames` on a job command streams all frames (accepted, running,
//! result/error) instead of just the report payload.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;

use wsn_dse::protocol::{Frame, Request};
use wsn_net::args::Args;

fn usage() -> &'static str {
    "usage: wsn_client --addr HOST:PORT <command> [options]\n\
     \n\
     run | simulate | faults | network | pareto\n\
               [the job options of `wsn_dse <command>`, e.g. --seed N --horizon S]\n\
               [--id TAG] [--timeout-ms N] [--frames]\n\
     stats | ping | shutdown\n\
     cancel    --job N\n\
     batch     (raw request lines on stdin; all frames to stdout)\n\
     \n\
     The report printed by a job command is byte-identical to the\n\
     corresponding `wsn_dse ... --json` output (the single-node run\n\
     report's \"cache\" counters excepted — they describe the server's\n\
     shared warm cache)."
}

fn connect(args: &Args) -> Result<TcpStream, String> {
    let addr = args
        .get("addr")?
        .ok_or_else(|| format!("--addr HOST:PORT is required\n{}", usage()))?;
    TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// Sends `line` and its newline in one write (two would let Nagle's
/// algorithm hold the newline back for the server's delayed ACK).
fn send_line(stream: &mut TcpStream, line: &str) -> Result<(), String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| format!("cannot send request: {e}"))
}

/// A line reader over the connection's replies.
fn reader_of(stream: &TcpStream) -> Result<BufReader<TcpStream>, String> {
    stream
        .try_clone()
        .map(BufReader::new)
        .map_err(|e| format!("cannot clone connection: {e}"))
}

/// Runs one job to its terminal frame. Prints the raw report (or, with
/// `--frames`, every frame) on stdout; failures go to stderr.
fn run_job(request: &Request, args: &Args) -> Result<ExitCode, String> {
    let mut stream = connect(args)?;
    send_line(&mut stream, &request.to_json())?;
    let show_frames = args.has_flag("frames");
    let reader = reader_of(&stream)?;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("connection lost: {e}"))?;
        if show_frames {
            println!("{line}");
        }
        match Frame::parse(&line).map_err(|e| format!("bad server frame: {e}"))? {
            Frame::Result { report, .. } => {
                if !show_frames {
                    println!("{report}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            Frame::JobError { message, .. } => {
                eprintln!("error: {message}");
                return Ok(ExitCode::FAILURE);
            }
            Frame::Cancelled { job, .. } => {
                eprintln!("error: job {job} was cancelled");
                return Ok(ExitCode::FAILURE);
            }
            Frame::ProtocolRejected { code, message } => {
                eprintln!("error: {code}: {message}");
                return Ok(ExitCode::FAILURE);
            }
            _ => {}
        }
    }
    Err("connection closed before the job finished".to_owned())
}

/// Sends one control request and prints the reply frame verbatim.
fn run_control(request: &Request, args: &Args) -> Result<ExitCode, String> {
    let mut stream = connect(args)?;
    send_line(&mut stream, &request.to_json())?;
    let mut reader = reader_of(&stream)?;
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| format!("connection lost: {e}"))?;
    if n == 0 {
        return Err("connection closed without a reply".to_owned());
    }
    print!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Streams raw stdin request lines to the server and every server frame
/// back to stdout, exiting once each submitted line has its terminal
/// frame. (A `cancel` line's reply and the cancelled job's terminal
/// frame both count, so mixing cancels into a batch can exit early —
/// use dedicated connections to exercise cancellation precisely.)
fn run_batch(args: &Args) -> Result<ExitCode, String> {
    let mut stream = connect(args)?;
    let stdin = std::io::stdin();
    let mut expected: usize = 0;
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        expected += 1;
        send_line(&mut stream, &line)?;
    }
    let reader = reader_of(&stream)?;
    let mut terminal = 0usize;
    for line in reader.lines() {
        let line = line.map_err(|e| format!("connection lost: {e}"))?;
        println!("{line}");
        let is_terminal = matches!(
            Frame::parse(&line),
            Ok(Frame::Result { .. }
                | Frame::JobError { .. }
                | Frame::Cancelled { .. }
                | Frame::ProtocolRejected { .. }
                | Frame::Stats { .. }
                | Frame::Pong
                | Frame::ShuttingDown)
        );
        if is_terminal {
            terminal += 1;
            if terminal >= expected {
                return Ok(ExitCode::SUCCESS);
            }
        }
    }
    if terminal >= expected {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(format!(
            "connection closed after {terminal}/{expected} replies"
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let Some(command) = args.command() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = if command == "batch" {
        run_batch(&args)
    } else {
        match args.request(command, &[]) {
            Ok(request) if request.is_job() => run_job(&request, &args),
            Ok(request) => run_control(&request, &args),
            Err(e) if e.code == "unknown_type" => {
                Err(format!("unknown command {command}\n{}", usage()))
            }
            Err(e) => Err(e.to_string()),
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
