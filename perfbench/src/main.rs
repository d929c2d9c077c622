//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints log lines, then one JSON result line. Exits 1 when any answer
//! differed from its host reference or any operation failed, 2 on bad
//! arguments.

use std::process::ExitCode;

use perfbench::{run, Args, Workload};

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args);
    for line in &out.log {
        println!("{line}");
    }
    if let Some(spans) = &out.spans_json {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!(
            "spans_{}_seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!("{}", out.outcome.json_line());
    if out.outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
