//! The `lint` CLI: `cargo run -p ichannels-lint -- check [flags]`.
//!
//! Exit codes: 0 clean, 1 any unsuppressed finding, 2 usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use ichannels_lint::{check, find_workspace_root};

const USAGE: &str = "\
usage: lint check [--json] [--out FILE] [--root DIR]

  check            scan the workspace; fail on any unsuppressed finding
  --json           print the JSON report to stdout instead of the summary
  --out FILE       additionally write the JSON report to FILE
  --root DIR       workspace root (default: ascend from the current dir)

Rules and the suppression syntax (`// lint:allow(RULE): reason`) are
documented in docs/LINTS.md.";

struct Args {
    json: bool,
    out: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        json: false,
        out: None,
        root: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--out" | "--root" => {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                let path = PathBuf::from(value);
                if arg == "--out" {
                    args.out = Some(path);
                } else {
                    args.root = Some(path);
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("check") => {}
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let args = match parse_args(&argv[1..]) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let root = match args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| find_workspace_root(&cwd))
    }) {
        Some(root) => root,
        None => {
            eprintln!("cannot locate the workspace root (pass --root DIR)");
            return ExitCode::from(2);
        }
    };

    let report = match check(&root) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(out) = &args.out {
        if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(out, report.render_json()) {
            eprintln!("cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    if args.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
