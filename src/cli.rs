//! Small argument-handling helpers shared by the command-line tools.
//!
//! The repository's arg-error convention: unknown input exits with code
//! 2 and, when a known candidate is plausibly close, a "did you mean"
//! hint. These helpers let every binary follow it.

use serde::Value;

/// Levenshtein edit distance between two strings.
///
/// # Examples
///
/// ```
/// assert_eq!(hpcqc::cli::edit_distance("vqpu", "vpqu"), 2);
/// assert_eq!(hpcqc::cli::edit_distance("same", "same"), 0);
/// ```
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut current = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let substitution = prev[j] + usize::from(ca != cb);
            current.push(substitution.min(prev[j + 1] + 1).min(current[j] + 1));
        }
        prev = current;
    }
    prev[b.len()]
}

/// The closest candidate to `input`, if anything is plausibly close
/// (edit distance ≤ 2 — enough for a typo'd short name).
///
/// # Examples
///
/// ```
/// let known = ["co-schedule", "workflow", "vqpu", "malleable", "adaptive"];
/// assert_eq!(hpcqc::cli::did_you_mean("workflw", known), Some("workflow"));
/// assert_eq!(hpcqc::cli::did_you_mean("qsub", known), None);
/// ```
pub fn did_you_mean<'a>(
    input: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|known| (edit_distance(input, known), known))
        .min()
        .filter(|(distance, _)| *distance <= 2)
        .map(|(_, known)| known)
}

/// Rejects the input keys retired when node failures moved into the
/// fault plan: a scenario's `node_failures` and a plan's
/// `node.max_requeues`. The JSON reader ignores unknown fields, so a file
/// still setting one would otherwise run failure-free, or under the
/// default requeue budget, without a word. `null` passes: every scenario
/// written before the fold carries `"node_failures": null`.
///
/// `text` is a scenario, a fault plan or a sweep grid; the plans checked
/// are the document itself, a scenario's `faults` and each entry of a
/// grid's `faults` axis. Text that is not JSON passes (the typed parse
/// reports it).
///
/// # Examples
///
/// ```
/// use hpcqc::cli::reject_retired_fault_keys;
/// assert!(reject_retired_fault_keys(r#"{"node_failures": null}"#).is_ok());
/// let err = reject_retired_fault_keys(r#"{"node": {"max_requeues": 2}}"#).unwrap_err();
/// assert!(err.contains("recovery.max_requeues"));
/// ```
pub fn reject_retired_fault_keys(text: &str) -> Result<(), String> {
    let Ok(doc) = serde_json::from_str::<Value>(text) else {
        return Ok(());
    };
    let set = |v: Option<&Value>| v.is_some_and(|v| !matches!(v, Value::Null));
    if set(doc.get("node_failures")) {
        return Err(
            "`node_failures` is retired: state node failures as `faults.node` \
             plus `faults.recovery.max_requeues`"
                .into(),
        );
    }
    let faults = doc.get("faults");
    let mut plans = std::iter::once(&doc)
        .chain(faults)
        .chain(faults.and_then(Value::as_seq).into_iter().flatten());
    if plans.any(|plan| set(plan.get("node").and_then(|node| node.get("max_requeues")))) {
        return Err("`node.max_requeues` is retired: set the plan's \
             `recovery.max_requeues`, the one fault requeue budget"
            .into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn hints_only_when_close() {
        let known = ["fcfs", "easy", "conservative"];
        assert_eq!(did_you_mean("eazy", known), Some("easy"));
        assert_eq!(did_you_mean("unrelated", known), None);
    }

    #[test]
    fn retired_fault_keys_rejected_wherever_a_plan_sits() {
        let node = r#"{"mtbf": {"Constant": {"value": 60}}, "repair": {"Constant": {"value": 6}}, "max_requeues": 2}"#;
        for doc in [
            format!(r#"{{"node": {node}}}"#),
            format!(r#"{{"classical_nodes": 8, "faults": {{"node": {node}}}}}"#),
            format!(r#"{{"faults": [{{"name": "ok"}}, {{"node": {node}}}]}}"#),
        ] {
            let err = reject_retired_fault_keys(&doc).unwrap_err();
            assert!(err.contains("recovery.max_requeues"), "{doc}: {err}");
        }
        let err =
            reject_retired_fault_keys(r#"{"node_failures": {"max_requeues": 3}}"#).unwrap_err();
        assert!(err.contains("faults.node"), "{err}");
    }

    #[test]
    fn null_and_absent_retired_keys_pass() {
        for doc in [
            r#"{"node_failures": null, "faults": null}"#,
            r#"{"node": {"max_requeues": null}}"#,
            r#"{"faults": [{"recovery": {"max_requeues": 1}}]}"#,
            "not json",
        ] {
            assert_eq!(reject_retired_fault_keys(doc), Ok(()), "{doc}");
        }
    }
}
