//! Small argument-handling helpers shared by the command-line tools.
//!
//! The repository's arg-error convention: unknown input exits with code
//! 2 and, when a known candidate is plausibly close, a "did you mean"
//! hint. These helpers let every binary follow it.

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
}
