//! Measured end-to-end and per-layer baseline for allreduce, training and
//! recovery on the in-process, Unix-socket and TCP transports.
//!
//! Everything here drives the **public** APIs of `transport`,
//! `collectives`, `ulfm`, `gloo`, `dnn`, `elastic` and `telemetry` from
//! outside; see `README.md` for the metrics, the workloads and how they
//! interact.

#![warn(missing_docs)]

pub mod json;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;

/// Metric and workload names are made of letters, digits, `_`, `.` and `-`,
/// start with a letter or digit, and are at most 64 characters long.
pub fn metric_name_ok(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::json::Json;
    use super::{layers::PER_LAYER, metric_name_ok, workloads::WORKLOADS};

    #[test]
    fn metric_names_keep_to_the_charset() {
        for ok in [
            "op_time_us",
            "transport.unix.pingpong_us",
            "ar-bw",
            "1mib",
            "a",
        ] {
            assert!(metric_name_ok(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "_x",
            "with space",
            "slash/",
            "µs",
            long.as_str(),
        ] {
            assert!(!metric_name_ok(bad), "{bad}");
        }
        for (name, unit, better) in PER_LAYER {
            assert!(metric_name_ok(name), "{name}");
            assert!(
                unit.len() <= 16 && ["higher", "lower"].contains(better),
                "{name}"
            );
        }
        let mut names: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            PER_LAYER.len(),
            "per-layer names must be unique"
        );
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics the code
    /// emits. On a mismatch the expected lists are printed.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            manifest
                .get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), ["op_time_us", "setup_s"]);
        let per_layer: Vec<Json> = PER_LAYER
            .iter()
            .map(|&(name, unit, better)| {
                Json::obj([
                    ("name", Json::Str(name.into())),
                    ("unit", Json::Str(unit.into())),
                    ("better", Json::Str(better.into())),
                ])
            })
            .collect();
        let want = Json::Arr(per_layer);
        assert_eq!(
            manifest.get("per_layer"),
            Some(&want),
            "per_layer should be {}",
            want.render()
        );
        for (w, listed) in WORKLOADS
            .iter()
            .zip(manifest.get("workloads").unwrap().as_arr().unwrap())
        {
            assert_eq!(listed.get("why").and_then(Json::as_str), Some(w.why));
        }
    }
}
