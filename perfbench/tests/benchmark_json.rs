//! `BENCHMARK.json` names exactly the workloads and metrics the command
//! prints, in the same order and with the same units.

use perfbench::{Workload, END_TO_END, PER_LAYER};

/// Every value of `"key": "<value>"` in the file, in order.
fn values(text: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_command() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    names.extend(END_TO_END.iter().map(|m| m.0.to_string()));
    names.extend(PER_LAYER.iter().map(|m| m.0.to_string()));
    assert_eq!(values(&text, "name"), names);
    let units: Vec<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.1.to_string())
        .collect();
    assert_eq!(values(&text, "unit"), units);
    assert!(text.contains("\"setup_s\""));
}
