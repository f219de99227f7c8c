//! Minimal argument parser shared by the `wsn_dse` and `wsn_client`
//! binaries: one command word plus `--key value` pairs and bare
//! `--flag`s. A token is a value when it follows a `--key` and does not
//! itself start with `--`; the first other token, wherever it stands, is
//! the command. No external dependencies, by design.
//!
//! [`Args::request`] is the one argv front end of the job spec: both
//! binaries turn their options into a [`Request`] through it, and it
//! reads them with the wire protocol's own field reader.

use std::fmt;
use std::str::FromStr;

use wsn_dse::protocol::{ProtocolError, Request};

/// Parsed arguments: the command plus `--key value` pairs and bare
/// `--flag`s.
pub struct Args {
    command: Option<String>,
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Rejects a second positional argument — besides the command, every
    /// token must be a `--option` or an option's value.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut args = Args {
            command: None,
            pairs: Vec::new(),
            flags: Vec::new(),
        };
        let mut tokens = argv.iter().peekable();
        while let Some(arg) = tokens.next() {
            match arg.strip_prefix("--") {
                None if args.command.is_none() => args.command = Some(arg.clone()),
                None => return Err(format!("unexpected positional argument: {arg}")),
                Some(key) => match tokens.next_if(|v| !v.starts_with("--")) {
                    Some(value) => args.pairs.push((key.to_owned(), value.clone())),
                    None => args.flags.push(key.to_owned()),
                },
            }
        }
        Ok(args)
    }

    /// The command word, when given.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// The raw value of `--key`, when given.
    ///
    /// # Errors
    ///
    /// Refuses `--key` given without a value (last on the line, or
    /// followed by another `--option`), so a valued option is never
    /// silently left at its default.
    pub fn get(&self, key: &str) -> Result<Option<&str>, String> {
        if self.has_flag(key) {
            return Err(format!("--{key}: expected a value"));
        }
        Ok(self
            .pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str()))
    }

    /// The value of `--key` parsed as a `T`, when given.
    ///
    /// # Errors
    ///
    /// Reports a value that does not parse, or `--key` given without one.
    pub fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: fmt::Display,
    {
        self.get(key)?
            .map(|v| v.parse().map_err(|e| format!("--{key}: {e} (got {v})")))
            .transpose()
    }

    /// Whether the bare flag `--key` was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// The request of type `command` these options describe (see
    /// [`Request::from_options`]): `--fault-seed 3` sets the job's
    /// `fault_seed`, a bare `--dse` sets `dse`, and options no job field
    /// carries are left to the caller. The options named in `ignored`
    /// are not read: those fields keep the job's default, given or not.
    ///
    /// # Errors
    ///
    /// An unknown command (`unknown_type`) or a bad option value.
    pub fn request(&self, command: &str, ignored: &[&str]) -> Result<Request, ProtocolError> {
        let read = |key: &str| !ignored.contains(&key);
        Request::from_options(
            command,
            self.pairs
                .iter()
                .filter(|(k, _)| read(k))
                .map(|(k, v)| (k.as_str(), v.as_str())),
            self.flags.iter().map(String::as_str).filter(|k| read(k)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn pairs_flags_and_defaults() {
        let args = of(&[
            "--addr", "h", "run", "--seed", "7", "--json", "--rate", "0.25",
        ]);
        assert_eq!(args.command(), Some("run"));
        assert_eq!(args.value("seed").unwrap().unwrap_or(12), 7);
        assert_eq!(args.value("runs").unwrap().unwrap_or(10), 10);
        assert_eq!(args.value("rate").unwrap().unwrap_or(0.0), 0.25);
        assert!(args.value::<u64>("rate").is_err());
        assert!(args.has_flag("json"));
        assert!(!args.has_flag("trace"));
    }

    #[test]
    fn valued_options_without_a_value_are_refused() {
        for argv in [
            &["chaos", "--points"][..],
            &["run", "--cache-dir"],
            &["run", "--jobs", "--json"],
        ] {
            let args = of(argv);
            let key = argv[1].trim_start_matches("--");
            let err = args.get(key).unwrap_err();
            assert_eq!(err, format!("--{key}: expected a value"), "{argv:?}");
            assert_eq!(args.value::<usize>(key).unwrap_err(), err, "{argv:?}");
        }
        // Absent options still read as absent, and a bare flag stays a flag.
        let args = of(&["run", "--jobs", "2", "--json"]);
        assert_eq!(args.get("jobs"), Ok(Some("2")));
        assert_eq!(args.get("cache-dir"), Ok(None));
        assert!(args.has_flag("json"));
    }

    #[test]
    fn positional_arguments_are_rejected() {
        let argv = ["run", "stray"].map(str::to_owned);
        assert!(Args::parse(&argv).is_err());
    }

    /// Every field of every job type set away from its default, as
    /// `name=value` with the wire's names and JSON values.
    const FULL: [(&str, &str); 5] = [
        (
            "run",
            "id=\"a\" seed=3 runs=12 f0=80 horizon=900 engine=\"full\" fault_seed=4 \
             fault_rate=0.25 timeout_ms=500 dt=0.0002",
        ),
        (
            "simulate",
            "id=\"7\" clock=8e6 watchdog=60 interval=0.005 f0=70 horizon=600 engine=\"full\" \
             fault_seed=2 fault_rate=0.1 timeout_ms=9 dt=0.001 trace=true",
        ),
        (
            "faults",
            "id=\"f\" clock=1e6 watchdog=30 interval=2 f0=72 horizon=300 fault_seed=5 \
             fault_rate=0.3 seeds=3 engine=\"full\" timeout_ms=1 dt=0.004",
        ),
        (
            "network",
            "id=\"n\" nodes=4 fleet_seed=5 f0=74 horizon=600 freq_spread=1.5 phase_spread=12 \
             ideal=true slot=0.5 interference=20 delivery=40 ring_radius=4 grid_pitch=7 \
             dse=true seed=9 runs=11 clock=2e6 watchdog=100 interval=1 engine=\"full\" \
             fault_seed=6 fault_rate=0.05 timeout_ms=70 dt=0.003",
        ),
        (
            "pareto",
            "id=\"p\" fleet=true nodes=3 fleet_seed=8 f0=76 horizon=900 \
             objectives=\"goodput_per_hour\" adaptive=true budget=14 seed=2 runs=13 \
             engine=\"full\" timer_space=true timeout_ms=60 freq_spread=1.5 phase_spread=12 \
             ideal=true slot=0.5 interference=20 delivery=40 ring_radius=4 grid_pitch=7 \
             fault_seed=1 fault_rate=0.02 dt=0.001 batch=4 front_cap=6 explore=0.75",
        ),
    ];

    /// A row as command-line options (`--fault-rate 0.25`, a bare flag
    /// for `true`) and as a wire document.
    fn both_forms(kind: &str, row: &str) -> (Vec<String>, String) {
        let mut argv = Vec::new();
        let mut wire = format!("{{\"type\":\"{kind}\"");
        for (name, value) in row.split_whitespace().filter_map(|m| m.split_once('=')) {
            argv.push(format!("--{}", name.replace('_', "-")));
            if value != "true" {
                argv.push(value.trim_matches('"').to_owned());
            }
            wire.push_str(&format!(",\"{name}\":{value}"));
        }
        (argv, wire + "}")
    }

    #[test]
    fn options_and_wire_documents_read_as_the_same_request() {
        let defaults = FULL.map(|(kind, _)| (kind, ""));
        for (kind, row) in defaults.into_iter().chain(FULL) {
            let (argv, wire) = both_forms(kind, row);
            let from_argv = Args::parse(&argv).unwrap().request(kind, &[]).unwrap();
            assert_eq!(from_argv, Request::parse(&wire).unwrap(), "{wire}");
        }
    }

    #[test]
    fn the_full_rows_set_every_field_of_their_job() {
        let members = |request: Request| match wsn_dse::protocol::parse_json(&request.to_json()) {
            Ok(wsn_dse::protocol::Json::Obj(members)) => members,
            other => panic!("not an object: {other:?}"),
        };
        for (kind, row) in FULL {
            let full = members(Request::parse(&both_forms(kind, row).1).unwrap());
            let default = members(of(&[]).request(kind, &[]).unwrap());
            // Optional fields are absent by default; every field of the
            // full row is present and differs from its default.
            assert!(full.len() > default.len(), "{kind}");
            for (name, value) in &full[1..] {
                let default_value = default.iter().find(|(n, _)| n == name).map(|(_, v)| v);
                assert_ne!(
                    default_value,
                    Some(value),
                    "{kind}: {name} left at its default"
                );
            }
        }
    }

    #[test]
    fn bad_option_values_are_the_wire_errors() {
        for (kind, argv, field) in [
            ("run", "--seed x", "seed"),
            ("simulate", "--fault-rate 2", "fault_rate"),
            ("faults", "--fault-rate 0", "fault_rate"),
            ("network", "--nodes 0", "nodes"),
            ("network", "--slot 0", "slot"),
            ("pareto", "--dt -1", "dt"),
        ] {
            let argv: Vec<String> = argv.split_whitespace().map(str::to_owned).collect();
            let err = Args::parse(&argv).unwrap().request(kind, &[]).unwrap_err();
            assert_eq!(err.code, "bad_field", "{kind} {argv:?}");
            assert!(err.message.contains(field), "{kind} {argv:?}: {err}");
        }
        assert_eq!(
            of(&[]).request("frobnicate", &[]).unwrap_err().code,
            "unknown_type"
        );
    }

    #[test]
    fn option_text_is_parsed_by_the_field_type() {
        let run = |argv: &[&str]| match of(argv).request("run", &[]) {
            Ok(Request::Run(job)) => Ok((job.seed, job.fault_rate)),
            other => other.map(|r| panic!("not a run: {r:?}")),
        };
        // An integer keeps all 64 bits: 2^53 + 1 is no f64.
        let seed = run(&["--seed", "9007199254740993"]).unwrap().0;
        assert_eq!(seed, 9_007_199_254_740_993);
        assert_eq!(run(&["--fault-rate", ".5"]).unwrap().1, 0.5);
        for argv in [
            ["--seed", "3.0"],
            ["--runs", "1e1"],
            ["--seed", "18446744073709551616"],
        ] {
            assert_eq!(run(&argv).unwrap_err().code, "bad_field", "{argv:?}");
        }
        let cancel = of(&["--job", "9007199254740993"]).request("cancel", &[]);
        assert_eq!(
            cancel.unwrap(),
            Request::Cancel {
                job: 9_007_199_254_740_993
            }
        );
    }

    #[test]
    fn ignored_options_keep_their_defaults() {
        let args = of(&["--id", "x", "--timeout-ms", "5", "--seed", "3", "--ideal"]);
        let read = args.request("network", &["id", "timeout-ms", "ideal"]);
        let expected = wsn_dse::protocol::NetworkJob {
            seed: 3,
            ..Default::default()
        };
        assert_eq!(read.unwrap(), Request::Network(expected));
    }
}
