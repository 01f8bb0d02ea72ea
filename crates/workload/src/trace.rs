//! Workload trace I/O.
//!
//! Two formats:
//!
//! * **JSON** — full-fidelity serde round-trip of a [`Workload`], for
//!   archiving generated campaigns alongside experiment results;
//! * **HQWF v1** (*Hybrid Quantum Workload Format*) — a compact,
//!   line-oriented text format in the spirit of the Standard Workload
//!   Format (SWF) used by the parallel-workloads archive, extended with a
//!   phase column so hybrid structure survives the round trip.
//!
//! HQWF line grammar (whitespace separated):
//!
//! ```text
//! <submit_s> <user> <name> <nodes> <partition> <qpus> <qpu_partition> <walltime_s> <phase>…
//! phase := C:<secs> | Q:<name>,<qubits>,<depth>,<shots>
//! ```
//!
//! Lines starting with `;` are comments, as in SWF.

use crate::campaign::{Workload, WorkloadError};
use crate::job::{JobSpec, Phase};
use hpcqc_qpu::kernel::Kernel;
use hpcqc_simcore::time::{SimDuration, SimTime};
use std::error::Error;
use std::fmt;

/// Why a trace could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.reason
        )
    }
}

impl Error for ParseTraceError {}

/// Why a JSON trace could not be loaded: malformed JSON, or JSON that
/// parses but does not describe a valid workload.
#[derive(Debug)]
pub enum TraceError {
    /// The text is not valid JSON for a workload.
    Json(serde_json::Error),
    /// The jobs parsed but violate workload invariants (duplicate names,
    /// zero-duration phases).
    Invalid(WorkloadError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Json(e) => write!(f, "trace JSON error: {e}"),
            TraceError::Invalid(e) => write!(f, "invalid workload in trace: {e}"),
        }
    }
}

impl Error for TraceError {}

/// Serializes a workload to JSON.
///
/// # Errors
///
/// Propagates `serde_json` failures (practically unreachable for this type).
pub fn to_json(workload: &Workload) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(workload)
}

/// Parses a workload from JSON and validates it (unique job names,
/// positive phase durations).
///
/// # Errors
///
/// [`TraceError::Json`] on malformed input, [`TraceError::Invalid`] when
/// the parsed jobs violate workload invariants.
pub fn from_json(json: &str) -> Result<Workload, TraceError> {
    let mut workload: Workload = serde_json::from_str(json).map_err(TraceError::Json)?;
    // Deserialization bypasses the validating constructor; re-validate in
    // place (no clone — traces can be facility-scale) so a hand-edited
    // trace cannot smuggle in duplicate names or zero-length phases, and
    // restore the sorted-by-submit invariant the constructor guarantees.
    Workload::validate_jobs(workload.jobs()).map_err(TraceError::Invalid)?;
    workload.sort_by_submit();
    Ok(workload)
}

/// The HQWF header comment lines (format marker + column legend).
pub const HQWF_HEADER: &str = "; HQWF v1 — hybrid quantum workload trace\n\
     ; submit_s user name nodes partition qpus qpu_partition walltime_s phases...\n";

/// Renders one job as its HQWF line (no trailing newline). Streaming
/// writers emit [`HQWF_HEADER`] once, then one line per job as the jobs
/// come — a million-job trace never needs to exist in memory.
pub fn to_hqwf_line(job: &JobSpec) -> String {
    let mut out = format!(
        "{:.3} {} {} {} {} {} {} {:.0}",
        job.submit().as_secs_f64(),
        job.user(),
        job.name(),
        job.nodes(),
        job.partition(),
        job.qpu_count(),
        job.qpu_partition(),
        job.walltime().as_secs_f64(),
    );
    for phase in job.phases() {
        match phase {
            Phase::Classical(d) => out.push_str(&format!(" C:{:.3}", d.as_secs_f64())),
            Phase::Quantum(k) => out.push_str(&format!(
                " Q:{},{},{},{}",
                k.name(),
                k.qubits(),
                k.depth(),
                k.shots()
            )),
        }
    }
    out
}

/// Renders a workload in HQWF v1.
pub fn to_hqwf(workload: &Workload) -> String {
    let mut out = String::from(HQWF_HEADER);
    for job in workload.jobs() {
        out.push_str(&to_hqwf_line(job));
        out.push('\n');
    }
    out
}

/// Parses an HQWF v1 trace.
///
/// Durations and submit instants are recovered by rounding to the nearest
/// nanosecond, so any trace whose times sit on the format's millisecond
/// grid (every trace this crate writes from a generated workload) parses
/// back to the identical [`SimTime`]/[`SimDuration`] values.
///
/// # Errors
///
/// Returns [`ParseTraceError`] with the offending 1-based line on
/// malformed input — including workload-level defects (duplicate job
/// names, zero-duration phases), which report the line of the offending
/// job.
pub fn from_hqwf(text: &str) -> Result<Workload, ParseTraceError> {
    let mut jobs = Vec::new();
    let mut job_lines = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let mut next = |what: &str| {
            fields.next().ok_or_else(|| ParseTraceError {
                line: lineno,
                reason: format!("missing field `{what}`"),
            })
        };
        let submit = parse_secs(next("submit_s")?, "submit_s", lineno)?;
        let user = next("user")?.to_string();
        let name = next("name")?.to_string();
        let nodes: u32 = parse_num(next("nodes")?, "nodes", lineno)?;
        let partition = next("partition")?.to_string();
        let qpus: u32 = parse_num(next("qpus")?, "qpus", lineno)?;
        let qpu_partition = next("qpu_partition")?.to_string();
        let walltime = parse_secs(next("walltime_s")?, "walltime_s", lineno)?;
        let mut phases = Vec::new();
        for tok in fields {
            phases.push(parse_phase(tok, lineno)?);
        }
        jobs.push(
            JobSpec::builder(name)
                .user(user)
                .submit(SimTime::ZERO + submit)
                .nodes(nodes)
                .partition(partition)
                .qpus(qpus)
                .qpu_partition(qpu_partition)
                .walltime(walltime)
                .phases(phases)
                .build(),
        );
        job_lines.push(lineno);
    }
    Workload::try_from_jobs(jobs).map_err(|e| ParseTraceError {
        line: job_lines[e.job_index()],
        reason: e.to_string(),
    })
}

/// Nearest-nanosecond duration from parsed seconds (validated `>= 0`).
fn parse_num<T: std::str::FromStr>(s: &str, what: &str, line: usize) -> Result<T, ParseTraceError> {
    s.parse().map_err(|_| ParseTraceError {
        line,
        reason: format!("invalid {what}: `{s}`"),
    })
}

/// Parses a seconds field into a duration, rounded to the nanosecond.
/// The field must be a non-negative finite number short of `u64::MAX`
/// nanoseconds (about 1.8e10 s), the longest span a [`SimDuration`]
/// holds: a longer one would saturate to it silently.
fn parse_secs(s: &str, what: &str, line: usize) -> Result<SimDuration, ParseTraceError> {
    let secs: f64 = parse_num(s, what, line)?;
    let reject = |reason| Err(ParseTraceError { line, reason });
    if !secs.is_finite() || secs < 0.0 {
        return reject(format!(
            "{what} must be a non-negative finite number, got `{s}`"
        ));
    }
    let nanos = (secs * 1e9).round();
    if nanos >= u64::MAX as f64 {
        return reject(format!(
            "{what} must be below 1.8e10 s, the longest span the simulator holds, got `{s}`"
        ));
    }
    Ok(SimDuration::from_nanos(nanos as u64))
}

fn parse_phase(tok: &str, line: usize) -> Result<Phase, ParseTraceError> {
    if let Some(secs) = tok.strip_prefix("C:") {
        return Ok(Phase::Classical(parse_secs(
            secs,
            "classical phase seconds",
            line,
        )?));
    }
    if let Some(spec) = tok.strip_prefix("Q:") {
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() != 4 {
            return Err(ParseTraceError {
                line,
                reason: format!("quantum phase needs name,qubits,depth,shots: `{tok}`"),
            });
        }
        let kernel = Kernel::builder(parts[0])
            .qubits(parse_num(parts[1], "qubits", line)?)
            .depth(parse_num(parts[2], "depth", line)?)
            .shots(parse_num(parts[3], "shots", line)?)
            .build()
            .map_err(|e| ParseTraceError {
                line,
                reason: e.to_string(),
            })?;
        return Ok(Phase::Quantum(kernel));
    }
    Err(ParseTraceError {
        line,
        reason: format!("unknown phase token `{tok}`"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::JobClass;
    use crate::pattern::Pattern;

    fn sample_workload() -> Workload {
        Workload::builder()
            .class(JobClass::new("mpi", Pattern::classical(600.0)))
            .class(JobClass::new(
                "vqe",
                Pattern::vqe(
                    3,
                    20.0,
                    Kernel::builder("ans")
                        .qubits(8)
                        .depth(40)
                        .shots(500)
                        .build()
                        .unwrap(),
                ),
            ))
            .count(20)
            .generate(11)
    }

    #[test]
    fn json_roundtrip() {
        let w = sample_workload();
        let json = to_json(&w).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn hqwf_roundtrip_preserves_structure() {
        let w = sample_workload();
        let text = to_hqwf(&w);
        let back = from_hqwf(&text).unwrap();
        assert_eq!(back.len(), w.len());
        for (a, b) in w.jobs().iter().zip(back.jobs()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.qpu_count(), b.qpu_count());
            assert_eq!(a.quantum_phase_count(), b.quantum_phase_count());
            // Durations survive at millisecond fidelity.
            let da = a.total_classical().as_secs_f64();
            let db = b.total_classical().as_secs_f64();
            assert!((da - db).abs() < 0.01, "{da} vs {db}");
        }
    }

    #[test]
    fn hqwf_skips_comments_and_blanks() {
        let text = "; comment\n\n10.0 u j 2 classical 0 quantum 600 C:5.0\n";
        let w = from_hqwf(text).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w.jobs()[0].nodes(), 2);
    }

    #[test]
    fn hqwf_error_reports_line() {
        let text = "; ok\nnot_a_number u j 2 classical 0 quantum 600\n";
        let err = from_hqwf(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("submit_s"));
    }

    #[test]
    fn hqwf_rejects_bad_phase() {
        let text = "1.0 u j 1 classical 0 quantum 600 X:9\n";
        let err = from_hqwf(text).unwrap_err();
        assert!(err.reason.contains("unknown phase token"));
        let text = "1.0 u j 1 classical 0 quantum 600 Q:only,two\n";
        assert!(from_hqwf(text).is_err());
    }

    #[test]
    fn hqwf_missing_field() {
        let err = from_hqwf("1.0 u j\n").unwrap_err();
        assert!(err.reason.contains("missing field"));
    }

    #[test]
    fn hqwf_duplicate_name_reports_offending_line() {
        let text = "; header\n\
                    1.0 u twin 2 classical 0 quantum 600 C:5.0\n\
                    ; interleaved comment\n\
                    2.0 u other 2 classical 0 quantum 600 C:5.0\n\
                    3.0 u twin 2 classical 0 quantum 600 C:5.0\n";
        let err = from_hqwf(text).unwrap_err();
        assert_eq!(err.line, 5, "must point at the duplicate, not the first");
        assert!(err.reason.contains("duplicate job name `twin`"));
    }

    #[test]
    fn hqwf_zero_duration_phase_reports_line() {
        let text = "1.0 u a 1 classical 0 quantum 600 C:5.0\n\
                    2.0 u b 1 classical 0 quantum 600 C:0.000\n";
        let err = from_hqwf(text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("zero-duration"));
    }

    #[test]
    fn hqwf_rejects_negative_times() {
        let err = from_hqwf("-1.0 u j 1 classical 0 quantum 600 C:5.0\n").unwrap_err();
        assert!(err.reason.contains("non-negative"));
        let err = from_hqwf("1.0 u j 1 classical 0 quantum 600 C:-5.0\n").unwrap_err();
        assert!(err.reason.contains("non-negative"));
    }

    #[test]
    fn hqwf_rejects_times_past_the_longest_span() {
        for (line, what) in [
            ("1e30 u j 1 classical 0 quantum 600 C:5\n", "submit_s"),
            ("10 u j 1 classical 0 quantum 1e30 C:5\n", "walltime_s"),
            (
                "10 u j 1 classical 0 quantum 600 C:1.9e10\n",
                "classical phase seconds",
            ),
        ] {
            let err = from_hqwf(&format!("; header\n{line}")).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.reason.contains(what), "{}", err.reason);
            assert!(err.reason.contains("longest span"), "{}", err.reason);
        }
        // The longest span still parses.
        let ok = from_hqwf("0 u j 1 classical 0 quantum 1.8e10 C:5\n").unwrap();
        assert_eq!(
            ok.jobs()[0].walltime(),
            SimDuration::from_secs(18_000_000_000)
        );
    }

    #[test]
    fn hqwf_millisecond_grid_roundtrip_is_exact() {
        // Times on the format's ms grid survive write → parse → write
        // byte-identically (the determinism contract generated traces use).
        let jobs = vec![
            JobSpec::builder("a")
                .submit(SimTime::ZERO + SimDuration::from_millis(1_234_567))
                .nodes(3)
                .walltime(SimDuration::from_secs(1_800))
                .phases(vec![
                    Phase::Classical(SimDuration::from_millis(8_191)),
                    Phase::Quantum(Kernel::sampling(500)),
                ])
                .build(),
            JobSpec::builder("b")
                .submit(SimTime::ZERO + SimDuration::from_millis(2_000_003))
                .walltime(SimDuration::from_secs(600))
                .phases(vec![Phase::Classical(SimDuration::from_millis(1))])
                .build(),
        ];
        let w = Workload::from_jobs(jobs);
        let text = to_hqwf(&w);
        let back = from_hqwf(&text).unwrap();
        assert_eq!(back, w, "ms-grid workload must round-trip losslessly");
        assert_eq!(
            to_hqwf(&back),
            text,
            "re-rendered trace must be byte-identical"
        );
    }

    #[test]
    fn json_validation_threaded() {
        // Serialize a valid workload, then corrupt it into a duplicate.
        let w = Workload::from_jobs(vec![
            JobSpec::builder("a").build(),
            JobSpec::builder("b").build(),
        ]);
        let json = to_json(&w).unwrap().replace("\"b\"", "\"a\"");
        match from_json(&json) {
            Err(TraceError::Invalid(WorkloadError::DuplicateName { name, .. })) => {
                assert_eq!(name, "a");
            }
            other => panic!("expected duplicate-name error, got {other:?}"),
        }
        assert!(matches!(from_json("{nope"), Err(TraceError::Json(_))));
    }
}
