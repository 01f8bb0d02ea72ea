//! `hpcqc-sim` — run hybrid HPC-QC scheduling scenarios from the command
//! line.
//!
//! ```text
//! # Generate a synthetic workload trace (builder mix)
//! hpcqc-sim generate --count 200 --seed 7 --out campaign.hqwf
//!
//! # Synthesize a facility-scale trace from a declarative generator spec
//! hpcqc-sim gen --spec examples/gen/day_small.json --seed 7 --out day.hqwf
//!
//! # Simulate a workload under one strategy
//! hpcqc-sim run --workload campaign.hqwf --strategy vqpu:4 --nodes 64 \
//!               --device superconducting --policy easy
//!
//! # Stream a generated facility through the simulator (constant memory —
//! # the workload is never materialized)
//! hpcqc-sim run --source gen:examples/gen/day_small.json --strategy vqpu:4 \
//!               --nodes 256
//!
//! # Record observability artifacts: a Perfetto-loadable Chrome trace,
//! # a metrics time-series, and a scheduler wall-clock profile
//! hpcqc-sim run --workload campaign.hqwf --trace out.json \
//!               --metrics out.csv --metrics-interval 60 --profile
//!
//! # Explain who pays the queue wait: a per-cause wait-attribution table
//! hpcqc-sim explain --workload campaign.hqwf --by cause --format markdown
//!
//! # Inject faults (device outages, calibration drift, transient kernel
//! # errors) and recover from them per the plan's recovery policy
//! hpcqc-sim run --workload campaign.hqwf --faults plan.json
//!
//! # Inspect a dependability plan without running anything
//! hpcqc-sim faults --plan plan.json
//!
//! # Compare all four strategies on the same workload
//! hpcqc-sim run --workload campaign.hqwf --compare --device neutral-atom
//!
//! # Archive / inspect a scenario as JSON
//! hpcqc-sim run --workload campaign.hqwf --scenario scenario.json
//!
//! # Run a declarative parameter sweep across all cores
//! hpcqc-sim sweep --grid examples/grids/crossover.json --threads 8 --format csv
//!
//! # Ask the paper's §4 advisor which strategy fits a workload profile
//! hpcqc-sim advise --quantum-secs 10 --classical-secs 300 --queue-wait-secs 600
//! ```
//!
//! Workloads are read as HQWF (`.hqwf`, see `hpcqc_workload::trace`) or
//! JSON (anything else). `--scenario` loads a full [`Scenario`] as JSON;
//! individual flags override its fields. `--source gen:<spec.json>` runs a
//! `hpcqc_gen::GeneratorSpec` stream (seeded by `--seed`) instead of a
//! workload file. `--trace` writes a Chrome trace-event JSON timeline
//! (open it at <https://ui.perfetto.dev> or `chrome://tracing`).

use hpcqc::core::observer::GanttObserver;
use hpcqc::prelude::*;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str =
    "usage:\n  hpcqc-sim generate --count N [--seed S] [--out FILE] [--hybrid-share F]\n  \
     hpcqc-sim gen --spec FILE.json [--seed S] [--jobs N] [--format hqwf|json]\n              \
     [--out FILE] [--demand]\n  \
     hpcqc-sim run (--workload FILE | --source gen:FILE.json) [--scenario FILE.json]\n            \
     [--strategy S] [--nodes N] [--device TECH] [--policy P] [--seed S]\n            \
     [--fleet FILE.json] [--route R] [--faults FILE.json]\n            \
     [--age-weight F] [--size-weight F] [--fairshare-weight F]\n            \
     [--fairshare-half-life SECS] [--compare] [--gantt]\n            \
     [--trace OUT.json] [--metrics OUT.csv|OUT.json]\n            \
     [--metrics-interval SECS] [--profile] [--attribution OUT]\n  \
     hpcqc-sim explain (--workload FILE | --source gen:FILE.json) [--scenario FILE.json]\n                \
     [--strategy S] [--nodes N] [--device TECH] [--policy P] [--seed S]\n                \
     [--fleet FILE.json] [--route R] [--faults FILE.json]\n                \
     [--age-weight F] [--size-weight F] [--fairshare-weight F]\n                \
     [--fairshare-half-life SECS]\n                \
     [--by job|tenant|device|cause|class|critical-path]\n                \
     [--format csv|json|markdown|chrome] [--out FILE]\n  \
     hpcqc-sim devices (--fleet FILE.json | --scenario FILE.json)\n  \
     hpcqc-sim faults (--plan FILE.json | --scenario FILE.json)\n  \
     hpcqc-sim sweep --grid FILE.json [--threads N] [--format csv|json|markdown]\n              \
     [--summary] [--timing] [--attribution] [--faults FILE.json] [--out FILE]\n  \
     hpcqc-sim advise --quantum-secs X --classical-secs Y --queue-wait-secs Z\n               \
     [--tenants N]\n\n\
     strategies: co-schedule | workflow | vqpu:N | malleable:N | adaptive[:N]\n\
     devices:    superconducting | trapped-ion | neutral-atom | photonic | spin-qubit\n\
     policies:   fcfs | easy | conservative | priority-backfill[:age=H] |\n            \
     quantum-aware[:boost=P]\n\
     routes:     pin-first | least-loaded | tech-affinity";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Prints `message` on stderr and returns exit code `code`.
fn fail(code: u8, message: impl std::fmt::Display) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(code)
}

/// [`fail`] with exit code 2: unusable arguments or input files.
fn fail2(message: impl std::fmt::Display) -> ExitCode {
    fail(2, message)
}

/// Rejects an unknown flag, hinting at the closest of `known`.
fn unknown_argument<'a>(arg: &str, known: impl IntoIterator<Item = &'a str>) -> ExitCode {
    match hpcqc::cli::did_you_mean(arg, known) {
        Some(hint) => fail2(format!("unknown argument `{arg}` — did you mean `{hint}`?")),
        None => fail2(format!("unknown argument `{arg}`")),
    }
}

/// Every strategy form the CLI accepts, as shown in errors.
const STRATEGY_FORMS: &str = "co-schedule | workflow | vqpu:N | malleable:N | adaptive[:N]";
/// Bare strategy names, for "did you mean" hints against the typed word.
const STRATEGY_NAMES: [&str; 6] = [
    "co-schedule",
    "coschedule",
    "workflow",
    "vqpu",
    "malleable",
    "adaptive",
];

/// Parses a strategy argument; errors enumerate every valid form and hint
/// at the closest name (the workspace arg-error convention). A zero count
/// (`vqpu:0`) parses but fails [`Strategy::validate`].
fn parse_strategy(s: &str) -> Result<Strategy, String> {
    let bad = |input: &str| {
        let name = input.split(':').next().unwrap_or(input);
        let hint = match hpcqc::cli::did_you_mean(name, STRATEGY_NAMES) {
            Some(known) => format!(" — did you mean `{known}`?"),
            None => String::new(),
        };
        Err(format!(
            "unknown strategy `{input}`{hint} (valid: {STRATEGY_FORMS})"
        ))
    };
    let strategy = match s {
        "co-schedule" | "coschedule" => Ok(Strategy::CoSchedule),
        "workflow" => Ok(Strategy::Workflow),
        "adaptive" => Ok(Strategy::Adaptive { vqpus: 4 }),
        other => {
            if let Some(n) = other.strip_prefix("vqpu:") {
                match n.parse() {
                    Ok(vqpus) => Ok(Strategy::Vqpu { vqpus }),
                    Err(_) => bad(other),
                }
            } else if let Some(n) = other.strip_prefix("malleable:") {
                match n.parse() {
                    Ok(min_nodes) => Ok(Strategy::Malleable { min_nodes }),
                    Err(_) => bad(other),
                }
            } else if let Some(n) = other.strip_prefix("adaptive:") {
                match n.parse() {
                    Ok(vqpus) => Ok(Strategy::Adaptive { vqpus }),
                    Err(_) => bad(other),
                }
            } else {
                bad(other)
            }
        }
    }?;
    strategy.validate()?;
    Ok(strategy)
}

/// Every device technology the CLI accepts, as shown in errors.
const DEVICE_FORMS: &str = "superconducting | trapped-ion | neutral-atom | photonic | spin-qubit";
/// Device technology names, for "did you mean" hints.
const DEVICE_NAMES: [&str; 5] = [
    "superconducting",
    "trapped-ion",
    "neutral-atom",
    "photonic",
    "spin-qubit",
];

/// Parses a device technology; errors enumerate every valid form and hint
/// at the closest name (the workspace arg-error convention).
fn parse_device(s: &str) -> Result<Technology, String> {
    match s {
        "superconducting" => Ok(Technology::Superconducting),
        "trapped-ion" => Ok(Technology::TrappedIon),
        "neutral-atom" => Ok(Technology::NeutralAtom),
        "photonic" => Ok(Technology::Photonic),
        "spin-qubit" => Ok(Technology::SpinQubit),
        other => {
            let hint = match hpcqc::cli::did_you_mean(other, DEVICE_NAMES) {
                Some(known) => format!(" — did you mean `{known}`?"),
                None => String::new(),
            };
            Err(format!(
                "unknown device `{other}`{hint} (valid: {DEVICE_FORMS})"
            ))
        }
    }
}

/// Parses a route policy; errors enumerate every valid form and hint at
/// the closest name (the workspace arg-error convention).
fn parse_route(s: &str) -> Result<RouteSpec, String> {
    s.parse().map_err(|_| {
        let hint = match hpcqc::cli::did_you_mean(s, ALL_ROUTES.map(|r| r.name())) {
            Some(known) => format!(" — did you mean `{known}`?"),
            None => String::new(),
        };
        format!("unknown route `{s}`{hint} (valid: {ROUTE_FORMS})")
    })
}

/// Loads and validates a [`FleetSpec`] JSON file. Route typos inside the
/// file get the same "did you mean" treatment as `--route`.
fn load_fleet(path: &str) -> Result<FleetSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let fleet: FleetSpec = serde_json::from_str(&text).map_err(|e| {
        let message = e.to_string();
        // The serde error for a bad route already enumerates the valid
        // forms; recover the typo'd name and add the closest candidate.
        let hint = message
            .split_once("unknown route `")
            .and_then(|(_, rest)| rest.split('`').next())
            .and_then(|name| hpcqc::cli::did_you_mean(name, ALL_ROUTES.map(|r| r.name())))
            .map(|known| format!(" — did you mean `{known}`?"))
            .unwrap_or_default();
        format!("cannot parse fleet {path}: {message}{hint}")
    })?;
    fleet
        .validate()
        .map_err(|e| format!("invalid fleet {path}: {e}"))?;
    Ok(fleet)
}

/// Loads and validates a [`FaultPlan`] JSON file. serde_json's parse
/// errors already carry `line N column M`, which is the detail a user
/// fixing a hand-written plan needs most.
fn load_faults(path: &str) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let plan: FaultPlan = serde_json::from_str(&text).map_err(|e| {
        format!(
            "cannot parse fault plan {path}: {}",
            with_line_info(&e.to_string(), &text)
        )
    })?;
    hpcqc::cli::reject_retired_fault_keys(&text).map_err(|e| format!("fault plan {path}: {e}"))?;
    plan.validate()
        .map_err(|e| format!("invalid fault plan {path}: {e}"))?;
    Ok(plan)
}

/// Loads a [`Scenario`] JSON file; parse errors carry `line N column M`.
/// Validation is left to the caller.
fn load_scenario(path: &str) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let scenario: Scenario = serde_json::from_str(&text).map_err(|e| {
        format!(
            "cannot parse scenario {path}: {}",
            with_line_info(&e.to_string(), &text)
        )
    })?;
    hpcqc::cli::reject_retired_fault_keys(&text).map_err(|e| format!("scenario {path}: {e}"))?;
    scenario
        .strategy
        .validate()
        .map_err(|e| format!("scenario {path}: {e}"))?;
    Ok(scenario)
}

/// The JSON parser reports byte offsets; translate a trailing
/// `at byte N` into the line/column a user can actually jump to.
fn with_line_info(msg: &str, text: &str) -> String {
    let Some((_, offset)) = msg.rsplit_once(" at byte ") else {
        return msg.to_string();
    };
    let Ok(pos) = offset.trim().parse::<usize>() else {
        return msg.to_string();
    };
    let pos = pos.min(text.len());
    let line = 1 + text[..pos].matches('\n').count();
    let column = 1 + pos - text[..pos].rfind('\n').map_or(0, |n| n + 1);
    format!("{msg} (line {line} column {column})")
}

/// Bare policy names, for "did you mean" hints against the typed word.
const POLICY_NAMES: [&str; 7] = [
    "fcfs",
    "easy",
    "easy-backfill",
    "conservative",
    "conservative-backfill",
    "priority-backfill",
    "quantum-aware",
];

/// Parses a policy argument; errors enumerate every valid form and hint
/// at the closest name (the workspace arg-error convention). A known
/// name with a bad knob gets the knob's rule instead.
fn parse_policy(s: &str) -> Result<PolicySpec, String> {
    s.parse().map_err(|e: hpcqc::sched::ParsePolicyError| {
        if POLICY_NAMES.contains(&e.name.as_str()) {
            return e.to_string();
        }
        let hint = match hpcqc::cli::did_you_mean(&e.name, POLICY_NAMES) {
            Some(known) => format!(" — did you mean `{known}`?"),
            None => String::new(),
        };
        format!(
            "unknown policy `{input}`{hint} (valid: {forms})",
            input = e.input,
            forms = hpcqc::sched::POLICY_FORMS
        )
    })
}

fn generate(args: &[String]) -> ExitCode {
    let mut count = 100usize;
    let mut seed = 42u64;
    let mut out: Option<String> = None;
    let mut hybrid_share = 0.3f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--count" => {
                count = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = it.next().cloned(),
            "--hybrid-share" => {
                let share = it.next().and_then(|v| v.parse::<f64>().ok());
                match share.filter(|v| v.is_finite()) {
                    Some(v) => hybrid_share = v,
                    None => return fail2("--hybrid-share needs a finite number"),
                }
            }
            _ => usage(),
        }
    }
    let hybrid_share = hybrid_share.clamp(0.01, 0.99);
    let workload = Workload::builder()
        .class(
            JobClass::new("mpi", Pattern::classical(2_400.0))
                .weight(1.0 - hybrid_share)
                .nodes_between(2, 16),
        )
        .class(
            JobClass::new("vqe", Pattern::vqe(8, 120.0, Kernel::sampling(1_000)))
                .weight(hybrid_share)
                .nodes_between(1, 8)
                .quantum_estimate_secs(20.0),
        )
        .arrival(ArrivalProcess::poisson_per_hour(20.0))
        .count(count)
        .generate(seed);
    let text = hpcqc::workload::to_hqwf(&workload);
    if let Err(e) = write_output(out.as_deref(), |w| w.write_all(text.as_bytes())) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = out {
        eprintln!(
            "wrote {count} jobs ({} hybrid) to {path}",
            workload.hybrid_count()
        );
    }
    ExitCode::SUCCESS
}

fn load_trace(path: &str) -> Result<Workload, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".hqwf") {
        hpcqc::workload::from_hqwf(&text).map_err(|e| e.to_string())
    } else {
        hpcqc::workload::from_json(&text).map_err(|e| e.to_string())
    }
}

fn load_generator_spec(path: &str) -> Result<GeneratorSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec: GeneratorSpec =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    spec.validate()
        .map_err(|e| format!("invalid generator spec {path}: {e}"))?;
    Ok(spec)
}

/// `hpcqc-sim gen`: synthesize a facility-scale trace from a declarative
/// [`GeneratorSpec`]. HQWF output is written streaming — one line per
/// generated job — so month-long, million-job traces never materialize.
fn gen(args: &[String]) -> ExitCode {
    let mut spec_path: Option<String> = None;
    let mut seed = 42u64;
    let mut jobs: Option<u64> = None;
    let mut format = String::from("hqwf");
    let mut out: Option<String> = None;
    let mut demand = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => spec_path = it.next().cloned(),
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--jobs" => {
                jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|n| *n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--format" => format = it.next().cloned().unwrap_or_else(|| usage()),
            "--out" => out = it.next().cloned(),
            "--demand" => demand = true,
            other => {
                return unknown_argument(
                    other,
                    [
                        "--spec", "--seed", "--jobs", "--format", "--out", "--demand",
                    ],
                )
            }
        }
    }
    if !matches!(format.as_str(), "hqwf" | "json") {
        eprintln!("unknown --format `{format}` (hqwf | json)");
        return ExitCode::from(2);
    }
    let Some(spec_path) = spec_path else { usage() };
    let mut spec = match load_generator_spec(&spec_path) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(count) = jobs {
        spec.horizon = Horizon::Jobs { count };
    }
    if demand {
        println!(
            "spec `{}`: ~{:.1} jobs/hour (≈{:.0}/day) — {:.1} campaigns/h × mean campaign size {:.2}",
            spec.name,
            spec.expected_jobs_per_hour(),
            spec.expected_jobs_per_hour() * 24.0,
            spec.arrival.base_per_hour,
            spec.tenants.mean_campaign_size(),
        );
        return ExitCode::SUCCESS;
    }

    let stream = spec.stream(seed);
    let (count, hybrid) = if format == "json" {
        // JSON is a single document: materialize (use hqwf for huge traces).
        let workload = Workload::from_jobs(stream.collect());
        let text = hpcqc::workload::to_json(&workload).expect("workload serializes");
        let counts = (workload.len() as u64, workload.hybrid_count() as u64);
        if let Err(e) = write_output(out.as_deref(), |w| w.write_all(text.as_bytes())) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        counts
    } else {
        let mut count = 0u64;
        let mut hybrid = 0u64;
        let result = write_output(out.as_deref(), |w| {
            w.write_all(hpcqc::workload::HQWF_HEADER.as_bytes())?;
            for job in stream {
                count += 1;
                hybrid += u64::from(job.is_hybrid());
                writeln!(w, "{}", hpcqc::workload::to_hqwf_line(&job))?;
            }
            Ok(())
        });
        if let Err(e) = result {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        (count, hybrid)
    };
    eprintln!(
        "generated {count} jobs ({hybrid} hybrid) from `{}` at seed {seed}{}",
        spec.name,
        out.as_deref()
            .map(|p| format!(" into {p}"))
            .unwrap_or_default()
    );
    ExitCode::SUCCESS
}

/// Writes through a buffered sink to `path` (or stdout when `None`).
///
/// A reader that closes stdout early (`| head`) ends the output, not the
/// command: a broken pipe on stdout counts as success.
fn write_output(
    path: Option<&str>,
    body: impl FnOnce(&mut dyn Write) -> std::io::Result<()>,
) -> Result<(), String> {
    let fail = |e: std::io::Error| match path {
        Some(p) => format!("cannot write {p}: {e}"),
        None => format!("cannot write stdout: {e}"),
    };
    match path {
        Some(p) => {
            let file = std::fs::File::create(p).map_err(fail)?;
            let mut writer = std::io::BufWriter::new(file);
            body(&mut writer).map_err(fail)?;
            writer.flush().map_err(fail)
        }
        None => {
            let mut writer = std::io::BufWriter::new(std::io::stdout().lock());
            match body(&mut writer).and_then(|()| writer.flush()) {
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
                result => result.map_err(fail),
            }
        }
    }
}

fn summarize(strategy: Strategy, outcome: &Outcome, table: &mut Table) {
    table.row(vec![
        strategy.to_string(),
        fmt_secs(outcome.makespan.as_secs_f64()),
        fmt_secs(outcome.stats.mean_wait_secs()),
        format!("{:.1}", outcome.stats.mean_bounded_slowdown()),
        fmt_pct(outcome.mean_device_utilization()),
        format!("{:.1}", outcome.stats.total_node_hours_wasted()),
        format!("{}", outcome.stats.failed_count()),
    ]);
}

/// What `run` simulates: a materialized workload file, or a generator
/// spec streamed through the simulator in constant memory.
enum RunInput {
    Workload(Workload),
    Gen(GeneratorSpec),
}

/// Runs `sc` over `input` with `extras` watching the event stream and
/// `probe` watching the scheduler: the one way the CLI enters the event
/// loop. A generator input streams a fresh sequence per call, so every
/// strategy replays the identical generated jobs (common random numbers).
fn simulate<'o, P: CycleProbe + ?Sized>(
    sc: &Scenario,
    input: &RunInput,
    extras: &'o mut [&'o mut dyn SimObserver],
    probe: &mut P,
) -> Result<Outcome, String> {
    let driver = driver_for(&sc.strategy);
    match input {
        RunInput::Workload(workload) => {
            let mut source = workload.jobs().iter().cloned();
            FacilitySim::run_streamed_probed(sc, &mut source, driver, extras, probe)
        }
        RunInput::Gen(spec) => {
            let mut source = spec.stream(sc.seed);
            FacilitySim::run_streamed_probed(sc, &mut source, driver, extras, probe)
        }
    }
    .map_err(|e| format!("simulation failed under {}: {e}", sc.strategy))
}

/// The instruments `run` can attach to a single run. None of them
/// changes the simulation: each only watches.
#[derive(Debug)]
struct Instruments {
    /// `--trace`: Chrome trace-event output path.
    trace_out: Option<String>,
    /// `--metrics`: time-series output path.
    metrics_out: Option<String>,
    /// `--metrics-interval`: the time-series sampling interval.
    metrics_interval: SimDuration,
    /// `--profile`: print the scheduler's cycle profile.
    profile: bool,
    /// `--attribution`: wait-attribution table output path.
    attribution_out: Option<String>,
    /// `--gantt`: render the run's Gantt chart on stderr.
    gantt: bool,
}

impl Instruments {
    /// Whether any instrument is attached.
    fn any(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.profile
            || self.attribution_out.is_some()
            || self.gantt
    }
}

/// Runs one scenario with the requested instruments attached
/// ([`TraceObserver`], [`MetricsObserver`], [`AttributionObserver`],
/// [`GanttObserver`], and [`SchedProfiler`] as the scheduler probe) and
/// writes their artifacts. With none requested this is a plain run: no
/// observers and [`NoProbe`]. Returns the Gantt chart for the caller to
/// render after its own per-run lines.
fn run_instrumented(
    sc: &Scenario,
    input: &RunInput,
    instruments: &Instruments,
) -> Result<(Outcome, Option<GanttRecorder>), String> {
    let trace_out = instruments.trace_out.as_deref();
    let metrics_out = instruments.metrics_out.as_deref();
    let attribution_out = instruments.attribution_out.as_deref();
    let mut tracer = trace_out.map(|_| TraceObserver::for_scenario(sc));
    let mut metrics =
        metrics_out.map(|_| MetricsObserver::for_scenario(sc, instruments.metrics_interval));
    let mut attribution = attribution_out.map(|_| AttributionObserver::new());
    let mut gantt = instruments.gantt.then(GanttObserver::new);
    let mut profiler = instruments.profile.then(SchedProfiler::new);
    let outcome = {
        let mut extras: Vec<&mut dyn SimObserver> = Vec::new();
        if let Some(t) = tracer.as_mut() {
            extras.push(t);
        }
        if let Some(m) = metrics.as_mut() {
            extras.push(m);
        }
        if let Some(a) = attribution.as_mut() {
            extras.push(a);
        }
        if let Some(g) = gantt.as_mut() {
            extras.push(g);
        }
        // Unprofiled, `NoProbe` compiles the scheduler's probe hooks
        // away; the profiler watches through the `dyn` instantiation.
        match profiler.as_mut() {
            Some(profiler) => simulate(sc, input, &mut extras, profiler as &mut dyn CycleProbe)?,
            None => simulate(sc, input, &mut extras, &mut NoProbe)?,
        }
    };
    if let (Some(path), Some(tracer)) = (trace_out, tracer) {
        let trace = tracer.into_trace();
        let events = trace.len();
        write_output(Some(path), |w| {
            w.write_all(trace.to_json_string().as_bytes())
        })?;
        eprintln!("wrote trace ({events} events) to {path}");
    }
    if let (Some(path), Some(metrics)) = (metrics_out, metrics) {
        let registry = metrics.into_registry(outcome.makespan);
        let rendered = if path.ends_with(".json") {
            registry
                .to_json_string()
                .map_err(|e| format!("cannot serialize metrics: {e}"))?
        } else {
            registry.to_csv()
        };
        let rows = registry.len();
        write_output(Some(path), |w| w.write_all(rendered.as_bytes()))?;
        eprintln!("wrote metrics ({rows} samples) to {path}");
    }
    if let (Some(path), Some(attribution)) = (attribution_out, attribution) {
        let table = attribution.by_cause();
        let rendered = render_table(&table, format_for_path(path))?;
        let jobs = attribution.len();
        write_output(Some(path), |w| w.write_all(rendered.as_bytes()))?;
        eprintln!(
            "wrote wait attribution ({jobs} jobs, {} of wait) to {path}",
            fmt_secs(attribution.total_wait().as_secs_f64())
        );
    }
    if let Some(profiler) = profiler {
        eprintln!("{}", profiler.summary());
    }
    Ok((outcome, gantt.map(GanttObserver::into_gantt)))
}

/// Table output format, selected from a file extension (`.json`,
/// `.md`/`.markdown`, anything else CSV).
fn format_for_path(path: &str) -> &'static str {
    if path.ends_with(".json") {
        "json"
    } else if path.ends_with(".md") || path.ends_with(".markdown") {
        "markdown"
    } else {
        "csv"
    }
}

/// Renders a [`Table`] as CSV, pretty JSON, or markdown.
fn render_table(table: &Table, format: &str) -> Result<String, String> {
    Ok(match format {
        "json" => serde_json::to_string_pretty(table)
            .map_err(|e| format!("cannot serialize table: {e}"))?,
        "markdown" | "md" => table.to_markdown(),
        _ => table.to_csv(),
    })
}

/// The scenario flags `run` and `explain` share, for "did you mean"
/// hints.
const SCENARIO_FLAGS: [&str; 15] = [
    "--workload",
    "--source",
    "--scenario",
    "--strategy",
    "--nodes",
    "--device",
    "--policy",
    "--fleet",
    "--route",
    "--faults",
    "--seed",
    "--age-weight",
    "--size-weight",
    "--fairshare-weight",
    "--fairshare-half-life",
];

/// The scenario flags of `run` and `explain`, parsed but not yet applied:
/// [`ScenarioArgs::input`] loads the workload, [`ScenarioArgs::scenario`]
/// builds the [`Scenario`] the flags describe.
#[derive(Default)]
struct ScenarioArgs {
    workload: Option<String>,
    source: Option<String>,
    scenario: Option<String>,
    strategy: Option<Strategy>,
    nodes: Option<u32>,
    device: Option<Technology>,
    policy: Option<PolicySpec>,
    fleet: Option<String>,
    route: Option<RouteSpec>,
    faults: Option<String>,
    seed: Option<u64>,
    age_weight: Option<f64>,
    size_weight: Option<f64>,
    fairshare_weight: Option<f64>,
    half_life: Option<f64>,
}

impl ScenarioArgs {
    /// Parses `args`. Flags outside [`SCENARIO_FLAGS`] go to `other`, which
    /// returns `Ok(false)` for a flag the command does not know either;
    /// `extra` lists the command's own flags for the "did you mean" hint.
    fn parse(
        args: &[String],
        extra: &[&str],
        mut other: impl FnMut(&str, &mut std::slice::Iter<'_, String>) -> Result<bool, ExitCode>,
    ) -> Result<Self, ExitCode> {
        let mut parsed = ScenarioArgs::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
            match arg.as_str() {
                "--workload" => parsed.workload = Some(value().into()),
                "--source" => parsed.source = Some(value().into()),
                "--scenario" => parsed.scenario = Some(value().into()),
                "--fleet" => parsed.fleet = Some(value().into()),
                "--faults" => parsed.faults = Some(value().into()),
                "--strategy" => parsed.strategy = Some(parse_strategy(value()).map_err(fail2)?),
                "--device" => parsed.device = Some(parse_device(value()).map_err(fail2)?),
                "--route" => parsed.route = Some(parse_route(value()).map_err(fail2)?),
                "--policy" => parsed.policy = Some(parse_policy(value()).map_err(fail2)?),
                "--nodes" => {
                    let nodes = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &u32| n > 0);
                    parsed.nodes =
                        Some(nodes.ok_or_else(|| fail2("--nodes needs a positive node count"))?);
                }
                "--seed" => {
                    let seed = it.next().and_then(|v| v.parse().ok());
                    parsed.seed = Some(seed.ok_or_else(|| fail2("--seed needs a numeric seed"))?);
                }
                "--age-weight"
                | "--size-weight"
                | "--fairshare-weight"
                | "--fairshare-half-life" => {
                    let v = it
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|v| v.is_finite())
                        .ok_or_else(|| fail2(format!("{arg} needs a finite number")))?;
                    let slot = match arg.as_str() {
                        "--fairshare-half-life" if v <= 0.0 => {
                            return Err(fail2(
                                "--fairshare-half-life needs a positive number of seconds",
                            ))
                        }
                        "--fairshare-half-life" => &mut parsed.half_life,
                        "--age-weight" => &mut parsed.age_weight,
                        "--size-weight" => &mut parsed.size_weight,
                        _ => &mut parsed.fairshare_weight,
                    };
                    *slot = Some(v);
                }
                flag => {
                    if !other(flag, &mut it)? {
                        return Err(unknown_argument(
                            flag,
                            SCENARIO_FLAGS.iter().chain(extra).copied(),
                        ));
                    }
                }
            }
        }
        Ok(parsed)
    }

    /// Loads the workload `--workload` or `--source` names.
    fn input(&self) -> Result<RunInput, ExitCode> {
        match (&self.workload, &self.source) {
            (Some(path), None) => load_trace(path)
                .map(RunInput::Workload)
                .map_err(|e| fail(1, e)),
            (None, Some(source)) => {
                let path = source.strip_prefix("gen:").ok_or_else(|| {
                    fail2(format!("--source takes `gen:<spec.json>` (got `{source}`)"))
                })?;
                load_generator_spec(path)
                    .map(RunInput::Gen)
                    .map_err(|e| fail(1, e))
            }
            (Some(_), Some(_)) => Err(fail2("--workload and --source are mutually exclusive")),
            (None, None) => usage(),
        }
    }

    /// The `--scenario` file (or the default scenario) with every flag
    /// layered on top. Unreadable or malformed inputs and conflicting flags
    /// exit 2; a well-formed scenario that fails validation exits 1.
    fn scenario(&self) -> Result<Scenario, ExitCode> {
        let mut scenario = match &self.scenario {
            Some(path) => load_scenario(path).map_err(fail2)?,
            None => Scenario::default(),
        };
        if let Some(n) = self.nodes {
            scenario.classical_nodes = n;
        }
        // `--nodes` is positive, so a zero here came from the file.
        if scenario.classical_nodes == 0 {
            return Err(fail2(
                "the scenario file sets `classical_nodes` to 0; it needs a positive node count",
            ));
        }
        if let Some(path) = &self.fleet {
            scenario.fleet = Some(load_fleet(path).map_err(fail2)?);
        }
        if let Some(d) = self.device {
            if scenario.fleet.is_some() {
                return Err(fail2(
                    "--device sets the device list, which the fleet in force \
                     (--fleet FILE, or a scenario file carrying one) supersedes; \
                     drop --device",
                ));
            }
            scenario.devices = vec![d];
        }
        if let Some(r) = self.route {
            let fleet = scenario.fleet.as_mut().ok_or_else(|| {
                fail2("--route needs a fleet (--fleet FILE, or a scenario file carrying one)")
            })?;
            fleet.route = r;
        }
        // A scenario file can carry a machine serde cannot fully vet
        // (duplicate device names, no devices); catch it before the
        // simulator.
        scenario
            .machine()
            .validate()
            .map_err(|e| fail(1, format!("invalid scenario fleet: {e}")))?;
        if let Some(path) = &self.faults {
            scenario.faults = Some(load_faults(path).map_err(fail2)?);
        }
        // A scenario file can carry a fault plan serde cannot vet (NaN
        // rates, mtbf without repair); catch it before the simulator panics.
        if let Some(plan) = &scenario.faults {
            plan.validate()
                .map_err(|e| fail(1, format!("invalid scenario fault plan: {e}")))?;
        }
        if let Some(p) = self.policy {
            scenario.policy = p;
        }
        // Priority knobs layer field-by-field on top of whatever policy is
        // in force (from `--policy` or the scenario file), so
        // `--size-weight 0.5` overrides exactly that weight and nothing
        // else.
        if let Some(v) = self.age_weight {
            scenario.policy.weights.age_per_hour = v;
        }
        if let Some(v) = self.size_weight {
            scenario.policy.weights.size_per_node = v;
        }
        if let Some(v) = self.fairshare_weight {
            scenario.policy.weights.fairshare_per_node_hour = v;
        }
        if let Some(h) = self.half_life {
            scenario.policy.fairshare_half_life_secs = h;
        }
        // A scenario file can carry policy knobs serde cannot reject (zero
        // half-life, NaN weights); catch them here instead of panicking
        // deep in the scheduler.
        scenario
            .policy
            .validate()
            .map_err(|e| fail(1, format!("invalid scenario policy: {e}")))?;
        if let Some(s) = self.seed {
            scenario.seed = s;
        }
        if let Some(s) = self.strategy {
            scenario.strategy = s;
        }
        Ok(scenario)
    }
}

/// Prints what is about to run: the input, the machine
/// [`Scenario::machine`] resolves, the policy and the fault plan, if any.
fn announce(scenario: &Scenario, input: &RunInput) {
    match input {
        RunInput::Workload(workload) => eprintln!(
            "{} jobs ({} hybrid) on {} nodes, policy {}",
            workload.len(),
            workload.hybrid_count(),
            scenario.classical_nodes,
            scenario.policy
        ),
        RunInput::Gen(spec) => eprintln!(
            "streaming `{}` (~{:.0} jobs/h expected, seed {}) on {} nodes, policy {}",
            spec.name,
            spec.expected_jobs_per_hour(),
            scenario.seed,
            scenario.classical_nodes,
            scenario.policy
        ),
    }
    let machine = scenario.machine();
    let devices: Vec<String> = machine
        .devices
        .iter()
        .map(|d| format!("{} ({})", d.name, d.technology))
        .collect();
    eprintln!(
        "fleet `{}`: {} devices, route {}: {}",
        machine.name,
        devices.len(),
        machine.route,
        devices.join(", ")
    );
    if let Some(plan) = &scenario.faults {
        eprintln!(
            "fault plan `{}`{}",
            plan.label(),
            if plan.is_inert() { " (inert)" } else { "" }
        );
    }
}

fn run(args: &[String]) -> Result<(), ExitCode> {
    let mut compare = false;
    let mut instruments = Instruments {
        trace_out: None,
        metrics_out: None,
        metrics_interval: SimDuration::from_secs(60),
        profile: false,
        attribution_out: None,
        gantt: false,
    };
    let flags = [
        "--compare",
        "--gantt",
        "--trace",
        "--metrics",
        "--metrics-interval",
        "--profile",
        "--attribution",
    ];
    let args = ScenarioArgs::parse(args, &flags, |arg, it| {
        match arg {
            "--trace" => instruments.trace_out = it.next().cloned(),
            "--metrics" => instruments.metrics_out = it.next().cloned(),
            "--attribution" => instruments.attribution_out = it.next().cloned(),
            "--metrics-interval" => {
                let secs = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| {
                        fail2("--metrics-interval needs a positive number of seconds")
                    })?;
                instruments.metrics_interval = SimDuration::from_secs_f64(secs);
            }
            "--profile" => instruments.profile = true,
            "--compare" => compare = true,
            "--gantt" => instruments.gantt = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // `--trace` used to name the *input* workload; it is now the
    // trace-event output. Catch the old spelling with a pointed hint.
    if args.workload.is_none()
        && instruments
            .trace_out
            .as_deref()
            .is_some_and(|p| p.ends_with(".hqwf"))
    {
        return Err(fail2(
            "--trace now names the Chrome trace-event *output*; \
             use --workload for the input workload file",
        ));
    }
    if compare && instruments.any() {
        return Err(fail2(
            "--trace/--metrics/--profile/--attribution/--gantt instrument a single run; \
             drop --compare",
        ));
    }
    let input = args.input()?;
    let scenario = args.scenario()?;
    announce(&scenario, &input);

    let strategies = if compare {
        Strategy::representative_set()
    } else {
        vec![scenario.strategy]
    };
    let mut table = Table::new(vec![
        "strategy",
        "makespan",
        "mean wait",
        "slowdown",
        "QPU util",
        "node-h wasted",
        "failed",
    ]);
    for s in strategies {
        let mut sc = scenario.clone();
        sc.strategy = s;
        let (outcome, gantt) =
            run_instrumented(&sc, &input, &instruments).map_err(|e| fail(1, e))?;
        if let RunInput::Gen(_) = &input {
            eprintln!(
                "{s}: streamed {} jobs, peak in-flight {} ({} completed, {} failed)",
                outcome.stats.len(),
                outcome.peak_in_flight_jobs,
                outcome.stats.completed_count(),
                outcome.stats.failed_count(),
            );
        }
        summarize(s, &outcome, &mut table);
        // With a fleet in force, break the per-device picture out:
        // routing decisions are invisible in the aggregate QPU
        // utilization column.
        if scenario.fleet.is_some() && !compare {
            for d in &outcome.devices {
                eprintln!(
                    "device {} [{}]: {} kernels, busy {}, util {}, recal {}",
                    d.name,
                    d.technology,
                    d.tasks,
                    fmt_secs(d.busy_seconds),
                    fmt_pct(d.utilization),
                    fmt_secs(d.recalibration_seconds),
                );
            }
        }
        if let Some(g) = gantt {
            eprintln!();
            eprint!("{}", g.render_ascii(SimTime::ZERO, outcome.makespan, 100));
        }
    }
    println!("{table}");
    Ok(())
}

/// `hpcqc-sim explain`: run a scenario with the wait-attribution
/// observer attached and answer "who pays the queue wait" — a blame
/// table by cause, tenant, device, class, or job, or the per-job
/// critical path. `--format chrome` emits the causal chain as a
/// flow-arrowed Chrome trace instead (open it in Perfetto).
fn explain(args: &[String]) -> Result<(), ExitCode> {
    let mut by = String::from("cause");
    let mut format: Option<String> = None;
    let mut out: Option<String> = None;
    let args = ScenarioArgs::parse(args, &["--by", "--format", "--out"], |arg, it| {
        match arg {
            "--by" => by = it.next().cloned().unwrap_or_else(|| usage()),
            "--format" => format = it.next().cloned(),
            "--out" => out = it.next().cloned(),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    const BY_VALUES: [&str; 6] = ["cause", "tenant", "device", "class", "job", "critical-path"];
    if !BY_VALUES.contains(&by.as_str()) {
        let hint = match hpcqc::cli::did_you_mean(&by, BY_VALUES) {
            Some(known) => format!(" — did you mean `{known}`?"),
            None => String::new(),
        };
        return Err(fail2(format!(
            "unknown --by `{by}`{hint} (valid: {})",
            BY_VALUES.join(" | ")
        )));
    }
    // Format defaults to the output file's extension, or CSV on stdout.
    let format = format.unwrap_or_else(|| format_for_path(out.as_deref().unwrap_or("")).into());
    if !matches!(
        format.as_str(),
        "csv" | "json" | "markdown" | "md" | "chrome"
    ) {
        return Err(fail2(format!(
            "unknown --format `{format}` (csv | json | markdown | chrome)"
        )));
    }
    let input = args.input()?;
    let scenario = args.scenario()?;
    announce(&scenario, &input);

    let mut attribution = AttributionObserver::new();
    simulate(&scenario, &input, &mut [&mut attribution], &mut NoProbe).map_err(|e| fail(1, e))?;

    eprintln!(
        "attributed {} of queue wait across {} jobs \
         (QPU-contention share {}, head-shadow share {}, fault-recovery share {})",
        fmt_secs(attribution.total_wait().as_secs_f64()),
        attribution.len(),
        fmt_pct(attribution.qpu_contention_frac()),
        fmt_pct(attribution.shadow_frac()),
        fmt_pct(attribution.fault_recovery_frac()),
    );
    let rendered = if format == "chrome" {
        attribution.to_chrome_trace().to_json_string()
    } else {
        let table = match by.as_str() {
            "tenant" => attribution.by_tenant(),
            "device" => attribution.by_device(),
            "class" => attribution.by_class(),
            "job" => attribution.by_job(),
            "critical-path" => attribution.critical_path(),
            _ => attribution.by_cause(),
        };
        render_table(&table, &format).map_err(|e| fail(1, e))?
    };
    write_output(out.as_deref(), |w| w.write_all(rendered.as_bytes())).map_err(|e| fail(1, e))?;
    if let Some(path) = out {
        eprintln!("wrote wait attribution (--by {by}) to {path}");
    }
    Ok(())
}

/// `hpcqc-sim devices`: inspect a fleet (or a scenario's device set)
/// without running anything — one row per device, plus the route policy
/// in force.
fn devices(args: &[String]) -> ExitCode {
    let mut fleet_path: Option<String> = None;
    let mut scenario_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fleet" => fleet_path = it.next().cloned(),
            "--scenario" => scenario_path = it.next().cloned(),
            other => return unknown_argument(other, ["--fleet", "--scenario"]),
        }
    }
    let fleet = match (fleet_path, scenario_path) {
        (Some(path), None) => load_fleet(&path),
        (None, Some(path)) => load_scenario(&path).map(|sc| sc.machine().into_owned()),
        (Some(_), Some(_)) => return fail2("--fleet and --scenario are mutually exclusive"),
        (None, None) => usage(),
    };
    let fleet = match fleet {
        Ok(fleet) => fleet,
        Err(e) => return fail2(e),
    };
    if let Err(e) = fleet.validate() {
        return fail(1, format!("invalid fleet `{}`: {e}", fleet.name));
    }
    println!(
        "fleet `{}`: {} devices, route {}",
        fleet.name,
        fleet.devices.len(),
        fleet.route
    );
    let mut table = Table::new(vec![
        "device",
        "technology",
        "qubits",
        "shot cap",
        "calibration",
        "access",
        "status",
    ]);
    for d in &fleet.devices {
        table.row(vec![
            d.name.clone(),
            d.technology.to_string(),
            d.qubits
                .unwrap_or_else(|| d.technology.typical_qubits())
                .to_string(),
            d.shot_capacity
                .map_or_else(|| "unlimited".into(), |cap| cap.to_string()),
            d.calibration.map_or_else(
                || "scenario".into(),
                |on| if on { "on" } else { "off" }.into(),
            ),
            match &d.access {
                None => "scenario".to_string(),
                Some(AccessMode::Integrated { .. }) => "integrated".to_string(),
                Some(AccessMode::Cloud(_)) => "cloud".to_string(),
            },
            if d.down == Some(true) {
                "down"
            } else {
                "in service"
            }
            .to_string(),
        ]);
    }
    print!("{table}");
    ExitCode::SUCCESS
}

/// `hpcqc-sim faults`: inspect a dependability plan (or a scenario's
/// embedded one) without running anything — each fault process, its
/// parameters, and the recovery policy in force.
fn faults(args: &[String]) -> ExitCode {
    let mut plan_path: Option<String> = None;
    let mut scenario_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--plan" => plan_path = it.next().cloned(),
            "--scenario" => scenario_path = it.next().cloned(),
            other => return unknown_argument(other, ["--plan", "--scenario"]),
        }
    }
    let plan = match (plan_path, scenario_path) {
        (Some(path), None) => load_faults(&path).map_err(fail2),
        (None, Some(path)) => match load_scenario(&path) {
            Ok(sc) => sc
                .faults
                .ok_or_else(|| fail(1, format!("scenario {path} carries no fault plan"))),
            Err(e) => Err(fail2(e)),
        },
        (Some(_), Some(_)) => return fail2("--plan and --scenario are mutually exclusive"),
        (None, None) => usage(),
    };
    let plan = match plan {
        Ok(plan) => plan,
        Err(code) => return code,
    };
    if let Err(e) = plan.validate() {
        return fail(1, format!("invalid fault plan `{}`: {e}", plan.label()));
    }
    println!(
        "fault plan `{}`: {}",
        plan.label(),
        if plan.is_inert() {
            "inert (fault-free baseline)"
        } else {
            "active"
        }
    );
    let mut table = Table::new(vec!["process", "parameter", "value"]);
    match &plan.node {
        Some(node) => {
            table.row(vec!["node".into(), "mtbf".into(), node.mtbf.to_string()]);
            table.row(vec![
                "node".into(),
                "repair".into(),
                node.repair.to_string(),
            ]);
        }
        None => {
            table.row(vec!["node".into(), "process".into(), "none".into()]);
        }
    }
    match &plan.device {
        Some(device) => {
            match device.outage_process() {
                Some((mtbf, repair)) => {
                    table.row(vec![
                        "device".into(),
                        "outage mtbf".into(),
                        mtbf.to_string(),
                    ]);
                    table.row(vec![
                        "device".into(),
                        "outage repair".into(),
                        repair.to_string(),
                    ]);
                }
                None => {
                    table.row(vec!["device".into(), "outages".into(), "none".into()]);
                }
            }
            match &device.drift {
                Some(drift) => {
                    table.row(vec![
                        "drift".into(),
                        "per shot / threshold".into(),
                        format!("{} / {}", drift.per_shot, drift.threshold),
                    ]);
                    table.row(vec![
                        "drift".into(),
                        "shots to recalibration".into(),
                        format!("{:.0}", drift.shots_to_threshold()),
                    ]);
                    table.row(vec![
                        "drift".into(),
                        "recalibration".into(),
                        drift.recalibration_dist().to_string(),
                    ]);
                }
                None => {
                    table.row(vec!["drift".into(), "process".into(), "none".into()]);
                }
            }
            table.row(vec![
                "device".into(),
                "kernel error rate".into(),
                format!("{}", device.error_rate()),
            ]);
        }
        None => {
            table.row(vec!["device".into(), "process".into(), "none".into()]);
        }
    }
    let recovery = plan.recovery_or_default();
    table.row(vec![
        "recovery".into(),
        "kernel retries".into(),
        format!(
            "{} (backoff base {}s, doubling)",
            recovery.kernel_retry_cap(),
            recovery.backoff_base_secs()
        ),
    ]);
    table.row(vec![
        "recovery".into(),
        "failover".into(),
        if recovery.failover_enabled() {
            "on (re-route via fleet)"
        } else {
            "off"
        }
        .into(),
    ]);
    table.row(vec![
        "recovery".into(),
        "requeue budget".into(),
        recovery.requeue_budget().to_string(),
    ]);
    match recovery.checkpoint_spec() {
        Some(cp) => {
            table.row(vec![
                "recovery".into(),
                "checkpoint".into(),
                format!(
                    "every {} (+{} cost)",
                    fmt_secs(cp.interval_secs),
                    fmt_secs(cp.cost_secs)
                ),
            ]);
        }
        None => {
            table.row(vec!["recovery".into(), "checkpoint".into(), "off".into()]);
        }
    }
    print!("{table}");
    ExitCode::SUCCESS
}

/// Runs a declarative parameter grid on the sweep engine and emits the
/// per-cell rows (or the replica-aggregated summary) as CSV, JSON, or
/// markdown.
fn sweep(args: &[String]) -> ExitCode {
    let mut grid_path: Option<String> = None;
    let mut threads = 0usize; // 0 = available parallelism
    let mut format = String::from("csv");
    let mut summary = false;
    let mut timing = false;
    let mut attribution = false;
    let mut faults_path: Option<String> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--grid" => grid_path = it.next().cloned(),
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--format" => format = it.next().cloned().unwrap_or_else(|| usage()),
            "--summary" => summary = true,
            "--timing" => timing = true,
            "--attribution" => attribution = true,
            "--faults" => faults_path = it.next().cloned(),
            "--out" => out = it.next().cloned(),
            other => {
                return unknown_argument(
                    other,
                    [
                        "--grid",
                        "--threads",
                        "--format",
                        "--summary",
                        "--timing",
                        "--attribution",
                        "--faults",
                        "--out",
                    ],
                )
            }
        }
    }
    if !matches!(format.as_str(), "csv" | "json" | "markdown" | "md") {
        eprintln!("unknown --format `{format}` (csv | json | markdown)");
        return ExitCode::from(2);
    }
    let Some(grid_path) = grid_path else { usage() };
    let loaded = std::fs::read_to_string(&grid_path)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            let grid = serde_json::from_str::<Grid>(&text).map_err(|e| e.to_string())?;
            Ok((grid, text))
        });
    let (mut grid, text) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("cannot load grid {grid_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = hpcqc::cli::reject_retired_fault_keys(&text) {
        eprintln!("grid {grid_path}: {e}");
        return ExitCode::from(2);
    }
    // A zero strategy count is a malformed input, like a bad CLI value.
    if let Err(e) = grid.strategies.iter().try_for_each(Strategy::validate) {
        eprintln!("grid {grid_path}: {e}");
        return ExitCode::from(2);
    }
    // `--faults` pairs the loaded plan with the inert baseline as a
    // two-cell axis, so every combination gets a with/without comparison.
    // A grid that already declares its own axis wins — mixing the two
    // would silently reshuffle the grid's cell indices.
    if let Some(path) = faults_path {
        if grid.faults.is_some() {
            eprintln!("grid {grid_path} already has a `faults` axis; drop --faults");
            return ExitCode::from(2);
        }
        match load_faults(&path) {
            Ok(plan) => grid.faults = Some(vec![FaultPlan::none(), plan]),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Err(e) = grid.validate() {
        eprintln!("invalid grid {grid_path}: {e}");
        return ExitCode::FAILURE;
    }

    let executor = Executor::new(threads);
    eprintln!(
        "sweep: {} cells ({} replicas) on {} threads",
        grid.len(),
        grid.replicas,
        executor.threads()
    );
    // Live progress on stderr: a line per ~10% of cells (always the last).
    let stride = (grid.len() / 10).max(1);
    let progress = |done: usize, total: usize| {
        if done % stride == 0 || done == total {
            eprintln!("sweep: {done}/{total} cells done");
        }
    };
    let result = match executor.run_sim_with(&grid, attribution, progress) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "sweep: {:.1} cpu-seconds of simulation{}",
        result.total_wall_secs(),
        result
            .peak_rss_kb()
            .map(|kb| format!(", peak RSS {:.1} MB", kb as f64 / 1024.0))
            .unwrap_or_default(),
    );
    if timing {
        eprintln!();
        eprint!("{}", result.timing_table().to_markdown());
    }
    let (rendered, contents) = if summary {
        let table = result.summary();
        let rendered = match format.as_str() {
            "csv" => table.to_csv(),
            "json" => serde_json::to_string_pretty(&table).expect("table serializes"),
            _ => table.to_markdown(),
        };
        let contents = format!("{} summary rows ({} cells)", table.len(), result.len());
        (rendered, contents)
    } else {
        let rendered = match format.as_str() {
            "csv" => result.to_csv(),
            "json" => result.to_json(),
            _ => result.to_markdown(),
        };
        (rendered, format!("{} cells", result.len()))
    };
    if let Err(e) = write_output(out.as_deref(), |w| w.write_all(rendered.as_bytes())) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    if let Some(path) = out {
        eprintln!("wrote {contents} to {path}");
    }
    ExitCode::SUCCESS
}

/// Prints the §4 advisor's recommendation for a workload profile: which
/// integration strategy fits, and why (the paper's rationale verbatim).
fn advise(args: &[String]) -> ExitCode {
    let mut quantum_secs: Option<f64> = None;
    let mut classical_secs: Option<f64> = None;
    let mut queue_wait_secs: Option<f64> = None;
    let mut tenants = 4u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quantum-secs" | "--classical-secs" | "--queue-wait-secs" => {
                let value = it
                    .next()
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v >= 0.0);
                let Some(v) = value else {
                    eprintln!("{arg} needs a non-negative number of seconds");
                    return ExitCode::from(2);
                };
                match arg.as_str() {
                    "--quantum-secs" => quantum_secs = Some(v),
                    "--classical-secs" => classical_secs = Some(v),
                    _ => queue_wait_secs = Some(v),
                }
            }
            "--tenants" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => tenants = n,
                None => {
                    eprintln!("--tenants needs a job count");
                    return ExitCode::from(2);
                }
            },
            other => {
                return unknown_argument(
                    other,
                    [
                        "--quantum-secs",
                        "--classical-secs",
                        "--queue-wait-secs",
                        "--tenants",
                    ],
                )
            }
        }
    }
    let (Some(quantum), Some(classical), Some(wait)) =
        (quantum_secs, classical_secs, queue_wait_secs)
    else {
        eprintln!(
            "advise needs --quantum-secs, --classical-secs and --queue-wait-secs\n\
             (typical durations of one quantum phase, one classical phase, and\n\
             one batch-queue pass at your facility)"
        );
        return ExitCode::from(2);
    };
    let mut profile = WorkloadProfile::new(quantum, classical, wait);
    profile.concurrent_hybrid_jobs = tenants;
    let recommendation = recommend(&profile);
    println!("recommended strategy: {}", recommendation.strategy);
    println!("rationale (paper §4): {}", recommendation.rationale);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("generate") => generate(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("run") => run(&args[1..]).err().unwrap_or(ExitCode::SUCCESS),
        Some("explain") => explain(&args[1..]).err().unwrap_or(ExitCode::SUCCESS),
        Some("devices") => devices(&args[1..]),
        Some("faults") => faults(&args[1..]),
        Some("sweep") => sweep(&args[1..]),
        Some("advise") => advise(&args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
