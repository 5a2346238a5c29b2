//! One benchmark sample: runs one variant of one workload once and prints
//! one JSON line (set-up and body seconds, peak RSS, CPU ticks, operation
//! digests and, when traced, spans and per-layer figures). `run.py`
//! starts these processes one at a time and aggregates them.
//!
//! ```text
//! fcadbench --workload design_table4|serve_metropolis|serve_coupled
//!           --variant plain|traced|workers2|round_robin|recorder
//!           --seed N [--search K] [--size full|tiny]
//! ```
//!
//! `--search K` picks the K-th of `design_table4`'s DSE seeds derived from
//! `--seed` (default 0, `--seed`'s own); the serve workloads ignore it.

mod procfs;
mod spans;
mod workloads;

use std::process::ExitCode;

use spans::{Span, Tracer};
use workloads::{ServeWorkload, Size, Variant};

/// FNV-1a (64-bit) of `text`, as 16 hex digits.
pub fn fnv1a_hex(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}")
}

struct Args {
    workload: String,
    variant: Variant,
    seed: u64,
    search: u64,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut variant = Variant::Plain;
    let mut seed = None;
    let mut search = 0;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--variant" => {
                variant = match value.as_str() {
                    "plain" => Variant::Plain,
                    "traced" => Variant::Traced,
                    "workers2" => Variant::Workers2,
                    "round_robin" => Variant::RoundRobin,
                    "recorder" => Variant::Recorder,
                    other => return Err(format!("unknown variant {other}")),
                }
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed takes a whole number, not {value}"))?,
                )
            }
            "--search" => {
                search = value
                    .parse()
                    .map_err(|_| format!("--search takes a whole number, not {value}"))?
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("unknown size {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        variant,
        seed: seed.ok_or("--seed is required")?,
        search,
        size,
    })
}

/// A finite number rendered with all its digits.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn quote(text: &str) -> String {
    format!("\"{}\"", text.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Per-layer figures derivable from one traced sample's spans and counts.
fn layer_metrics(t: &Tracer) -> Vec<(&'static str, f64)> {
    let own = spans::self_seconds(t.spans());
    let s = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let c = |name: &str| t.counts().get(name).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("nnir.build_s", s("nnir.build")),
        ("profiler.profile_s", s("profiler.profile")),
        ("core.construct_s", s("core.construct")),
        ("dse.explore_s", s("dse.explore")),
        ("dse.evals", c("dse.evals")),
        ("dse.evals_per_s", ratio(c("dse.evals"), s("dse.explore"))),
        (
            "dse.inbranch_us",
            1e6 * ratio(s("dse.inbranch"), c("dse.inbranch.calls")),
        ),
        (
            "dse.convergence_iter",
            ratio(c("dse.convergence_iter"), c("dse.explore.calls")),
        ),
        (
            "accel.evaluate_us",
            1e6 * ratio(s("accel.evaluate"), c("accel.evaluate.calls")),
        ),
        (
            "cyclesim.simulate_us",
            1e6 * ratio(s("cyclesim.simulate"), c("cyclesim.simulate.calls")),
        ),
        (
            "cyclesim.stages_per_s",
            ratio(c("cyclesim.stages"), s("cyclesim.simulate")),
        ),
        ("serve.generate_s", s("serve.generate")),
        ("serve.engine_s", s("serve.engine")),
        ("serve.events", c("serve.events")),
        (
            "serve.events_per_s",
            ratio(c("serve.events"), s("serve.engine")),
        ),
        (
            "serve.completed_frac",
            ratio(c("serve.completed"), c("serve.issued")),
        ),
        ("bench.span_coverage", spans::top_level_coverage(t.spans())),
        ("bench.probe_s", spans::probe_seconds(t.spans())),
    ]
}

fn span_json(span: &Span) -> String {
    format!(
        "{{\"name\":{},\"start_us\":{},\"end_us\":{},\"parent\":{},\"probe\":{}}}",
        quote(span.name),
        num(span.start_us),
        num(span.end_us),
        span.parent.map_or("null".to_owned(), |p| p.to_string()),
        span.probe
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("fcadbench: {why}");
            return ExitCode::from(2);
        }
    };
    let serve_workload = match args.workload.as_str() {
        "design_table4" => None,
        "serve_metropolis" => Some(ServeWorkload::Metropolis),
        "serve_coupled" => Some(ServeWorkload::Coupled),
        other => {
            eprintln!("fcadbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let applies = match args.variant {
        Variant::Plain | Variant::Traced => true,
        Variant::Workers2 => serve_workload == Some(ServeWorkload::Metropolis),
        Variant::RoundRobin | Variant::Recorder => serve_workload == Some(ServeWorkload::Coupled),
    };
    if !applies {
        eprintln!(
            "fcadbench: variant {:?} does not apply to {}",
            args.variant, args.workload
        );
        return ExitCode::from(2);
    }

    let mut tracer = if args.variant == Variant::Traced {
        Tracer::on()
    } else {
        Tracer::off()
    };
    tracer.enter("workload");
    let sample = match serve_workload {
        None => workloads::design_table4(args.size, args.seed, args.search, &mut tracer),
        Some(w) => workloads::serve(w, args.size, args.seed, args.variant, &mut tracer),
    };
    tracer.exit();
    let peak_rss_kb = procfs::peak_rss_kb();
    let cpu_ticks = procfs::cpu_ticks();

    let ops: Vec<String> = sample
        .ops
        .iter()
        .map(|op| {
            format!(
                "{{\"name\":{},\"digest\":{},\"ok\":{},\"why\":{}}}",
                quote(&op.name),
                quote(&op.digest),
                op.ok,
                quote(&op.why)
            )
        })
        .collect();
    let setup: Vec<String> = sample.setup_s.iter().map(|&s| num(s)).collect();
    let mut fields = vec![
        format!("\"workload\":{}", quote(&args.workload)),
        format!("\"seed\":{}", args.seed),
        format!("\"setup_s\":[{}]", setup.join(",")),
        format!("\"wall_s\":{}", num(sample.wall_s)),
        format!("\"body_cpu_ticks\":{}", sample.body_cpu_ticks),
        format!("\"cpu_ticks\":{cpu_ticks}"),
        format!("\"peak_rss_kb\":{peak_rss_kb}"),
        format!("\"design_min_fps\":{}", num(sample.design_min_fps)),
        format!("\"ops\":[{}]", ops.join(",")),
    ];
    if tracer.is_on() {
        let layers: Vec<String> = layer_metrics(&tracer)
            .into_iter()
            .map(|(name, value)| format!("{}:{}", quote(name), num(value)))
            .collect();
        let spans: Vec<String> = tracer.spans().iter().map(span_json).collect();
        fields.push(format!("\"layers\":{{{}}}", layers.join(",")));
        fields.push(format!("\"spans\":[{}]", spans.join(",")));
    }
    println!("{{{}}}", fields.join(","));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a_hex(""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex("a"), "af63dc4c8601ec8c");
    }
}
