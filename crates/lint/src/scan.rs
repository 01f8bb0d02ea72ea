//! The per-file scanner: test-region detection, suppression parsing, and
//! the token-pattern passes for rules D001–D005.

use crate::lexer::{lex, Comment, Token, TokenKind};
use crate::report::Finding;
use crate::rules::Rule;

/// Longest run of identical-prefix suppression lines considered when a
/// suppression comment sits on its own line: it covers the next *code*
/// line, skipping over further suppression/comment-only lines.
#[derive(Debug)]
struct Suppression {
    rules: Vec<Rule>,
    reason: String,
    /// The code line this suppression covers.
    covers: u32,
    /// Where the directive itself lives (for S001 diagnostics).
    at: u32,
}

/// Scans one source file belonging to Cargo package `package` and returns
/// every finding, including suppressed ones (marked as such) and `S001`
/// malformed-suppression findings.
pub fn scan_source(package: &str, file: &str, src: &str) -> Vec<Finding> {
    scan_file(package, file, src, false)
}

/// [`scan_source`], for a file that is test code in full when
/// `test_file` holds (a module declared by [`test_modules`]): then only
/// its malformed suppressions are findings.
pub(crate) fn scan_file(package: &str, file: &str, src: &str, test_file: bool) -> Vec<Finding> {
    let lexed = lex(src);
    let test_regions = test_regions(&lexed.tokens);
    let in_test =
        |line: u32| test_file || test_regions.iter().any(|&(a, b)| line >= a && line <= b);
    let code_lines: Vec<u32> = {
        let mut lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        lines.dedup();
        lines
    };

    let mut findings = Vec::new();
    let suppressions = parse_suppressions(&lexed.comments, &code_lines, file, &mut findings);

    let mut raw = Vec::new();
    rule_passes(package, file, &lexed.tokens, &mut raw);

    for mut finding in raw {
        if in_test(finding.line) {
            continue;
        }
        if let Some(supp) = suppressions
            .iter()
            .find(|s| s.covers == finding.line && s.rules.contains(&finding.rule_enum()))
        {
            finding.suppressed = true;
            finding.reason = Some(supp.reason.clone());
        }
        findings.push(finding);
    }
    findings.sort_by_key(|f| (f.line, f.col));
    findings
}

fn rule_passes(package: &str, file: &str, tokens: &[Token], out: &mut Vec<Finding>) {
    let active: Vec<Rule> = crate::rules::ALL_RULES
        .iter()
        .copied()
        .filter(|r| r.applies_to(package))
        .collect();
    let on = |r: Rule| active.contains(&r);

    for (i, tok) in tokens.iter().enumerate() {
        match &tok.kind {
            TokenKind::Ident(name) => match name.as_str() {
                // D001: `SystemTime::now` / `Instant::now`.
                "SystemTime" | "Instant"
                    if on(Rule::D001)
                        && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                        && tokens.get(i + 2).is_some_and(|t| t.is_ident("now")) =>
                {
                    out.push(Finding::new(
                        Rule::D001,
                        file,
                        tok,
                        format!("wall-clock read `{name}::now` in a simulation crate"),
                    ));
                }
                // D002: any HashMap/HashSet mention in event-path crates.
                "HashMap" | "HashSet" if on(Rule::D002) => {
                    out.push(Finding::new(
                        Rule::D002,
                        file,
                        tok,
                        format!(
                            "`{name}` in an event-path crate: hash iteration order can reach \
                             simulation state; use BTreeMap/BTreeSet or justify via suppression"
                        ),
                    ));
                }
                // D003: entropy-based seeding.
                "thread_rng" | "from_entropy" if on(Rule::D003) => {
                    out.push(Finding::new(
                        Rule::D003,
                        file,
                        tok,
                        format!("entropy-based RNG seeding `{name}` outside tests"),
                    ));
                }
                // D004: `.unwrap()` / `.expect(` / `panic!`.
                "unwrap" | "expect"
                    if on(Rule::D004)
                        && i > 0
                        && tokens[i - 1].is_punct(".")
                        && tokens.get(i + 1).is_some_and(|t| t.is_punct("(")) =>
                {
                    out.push(Finding::new(
                        Rule::D004,
                        file,
                        tok,
                        format!("`.{name}()` in non-test library code; use a typed error"),
                    ));
                }
                "panic" if on(Rule::D004) && tokens.get(i + 1).is_some_and(|t| t.is_punct("!")) => {
                    out.push(Finding::new(
                        Rule::D004,
                        file,
                        tok,
                        "`panic!` in non-test library code; use a typed error".to_string(),
                    ));
                }
                _ => {}
            },
            // D005: `==` / `!=` with a float-literal operand.
            TokenKind::Punct(p @ ("==" | "!=")) if on(Rule::D005) => {
                let float_lhs = i > 0 && tokens[i - 1].kind == TokenKind::Float;
                let float_rhs = tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Float);
                if float_lhs || float_rhs {
                    out.push(Finding::new(
                        Rule::D005,
                        file,
                        tok,
                        format!("float `{p}` comparison; use a tolerance or restructure"),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// The out-of-line modules `src` declares as test code: every `mod
/// <name>;` in a test region, such as `#[cfg(test)] mod tests;`. The
/// file of such a module is test code in full, though nothing in it says
/// so.
pub(crate) fn test_modules(src: &str) -> Vec<String> {
    let tokens = lex(src).tokens;
    let regions = test_regions(&tokens);
    tokens
        .windows(3)
        .filter(|w| w[0].is_ident("mod") && w[2].is_punct(";"))
        .filter(|w| {
            regions
                .iter()
                .any(|&(a, b)| w[0].line >= a && w[0].line <= b)
        })
        .filter_map(|w| w[1].ident().map(str::to_string))
        .collect()
}

/// Line ranges (inclusive) covered by test code: `#[test]` functions and
/// items under a `cfg` that implies `test` (see [`implies_test`]), each
/// from the attribute line to the item's closing brace (or `;`), or the
/// whole file if an inner attribute at its top gates it so, as
/// `#![cfg(test)]` does.
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let last_line = tokens.last().map_or(0, |t| t.line);
    let mut i = 0usize;
    while let Some(attr) = attribute_at(tokens, i).filter(|a| a.inner) {
        if marks_test(&tokens[attr.body.clone()]) {
            return vec![(tokens[0].line, last_line)];
        }
        i = attr.next;
    }
    let mut regions = Vec::new();
    while i < tokens.len() {
        let Some(attr) = attribute_at(tokens, i).filter(|a| !a.inner) else {
            i += 1;
            continue;
        };
        if !marks_test(&tokens[attr.body.clone()]) {
            i = attr.next;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes, then brace-match the item.
        let mut k = attr.next;
        while let Some(next) = attribute_at(tokens, k) {
            k = next.next;
        }
        let mut end_line = last_line;
        let mut brace_depth = 0u32;
        let mut entered = false;
        while k < tokens.len() {
            if tokens[k].is_punct("{") {
                brace_depth += 1;
                entered = true;
            } else if tokens[k].is_punct("}") {
                brace_depth = brace_depth.saturating_sub(1);
                if entered && brace_depth == 0 {
                    end_line = tokens[k].line;
                    break;
                }
            } else if !entered && tokens[k].is_punct(";") {
                // Braceless item (e.g. `mod tests;`).
                end_line = tokens[k].line;
                break;
            }
            k += 1;
        }
        regions.push((start_line, end_line));
        i = k + 1;
    }
    regions
}

/// An attribute: `#[...]`, or `#![...]` if `inner`.
#[derive(Debug)]
struct Attribute {
    inner: bool,
    /// The tokens between the brackets.
    body: std::ops::Range<usize>,
    /// The index just past the closing bracket.
    next: usize,
}

/// The attribute that starts at `tokens[i]`, if one does.
fn attribute_at(tokens: &[Token], i: usize) -> Option<Attribute> {
    if !tokens.get(i)?.is_punct("#") {
        return None;
    }
    let inner = tokens.get(i + 1)?.is_punct("!");
    let open = i + 1 + usize::from(inner);
    if !tokens.get(open)?.is_punct("[") {
        return None;
    }
    let close = closing_bracket(tokens, open);
    Some(Attribute {
        inner,
        body: open + 1..close,
        next: (close + 1).min(tokens.len()),
    })
}

/// The index of the `]` that closes the `[` at `tokens[open]`, or the
/// end of `tokens` if none does.
fn closing_bracket(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0u32;
    for (k, tok) in tokens.iter().enumerate().skip(open) {
        if tok.is_punct("[") {
            depth += 1;
        } else if tok.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len()
}

/// Whether an attribute with this body marks test code: `test`, or a
/// `cfg` whose predicate [`implies_test`]. `cfg_attr(test, ...)` only
/// adds attributes under test, so it marks nothing.
fn marks_test(body: &[Token]) -> bool {
    match body {
        [only] => only.is_ident("test"),
        [cfg, open, predicate @ .., close]
            if cfg.is_ident("cfg") && open.is_punct("(") && close.is_punct(")") =>
        {
            implies_test(predicate)
        }
        _ => false,
    }
}

/// Whether a `cfg` predicate holds only under `test`: `test` itself, an
/// `all(...)` with such an argument, or an `any(...)` whose every
/// argument is one. `not(...)` and every other predicate do not.
fn implies_test(predicate: &[Token]) -> bool {
    match predicate {
        [only] => only.is_ident("test"),
        [op, open, args @ .., close] if open.is_punct("(") && close.is_punct(")") => {
            let args: Vec<&[Token]> = arguments(args).collect();
            if op.is_ident("all") {
                args.into_iter().any(implies_test)
            } else if op.is_ident("any") {
                !args.is_empty() && args.into_iter().all(implies_test)
            } else {
                false
            }
        }
        _ => false,
    }
}

/// The comma-separated arguments of a predicate list, split at the
/// commas outside any parentheses; an empty list has none.
fn arguments(tokens: &[Token]) -> impl Iterator<Item = &[Token]> {
    let mut depth = 0u32;
    tokens
        .split(move |tok| {
            if tok.is_punct("(") {
                depth += 1;
            } else if tok.is_punct(")") {
                depth = depth.saturating_sub(1);
            }
            depth == 0 && tok.is_punct(",")
        })
        .filter(|arg| !arg.is_empty())
}

/// Parses `hpcqc-lint: allow(...)` directives out of the comment stream.
/// Malformed directives (unknown rule, missing mandatory reason, bad
/// syntax) are reported as `S001` findings and do not suppress anything.
fn parse_suppressions(
    comments: &[Comment],
    code_lines: &[u32],
    file: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Suppression> {
    let mut out = Vec::new();
    for comment in comments {
        let Some(rest) = comment.text.strip_prefix("hpcqc-lint:") else {
            continue;
        };
        let covers = if comment.own_line {
            // A standalone directive covers the next code line.
            match code_lines.iter().find(|&&l| l > comment.line) {
                Some(&l) => l,
                None => {
                    findings.push(Finding::syntax(
                        file,
                        comment.line,
                        "suppression at end of file covers no code".to_string(),
                    ));
                    continue;
                }
            }
        } else {
            comment.line
        };
        match parse_allow(rest.trim()) {
            Ok((rules, reason)) => out.push(Suppression {
                rules,
                reason,
                covers,
                at: comment.line,
            }),
            Err(msg) => findings.push(Finding::syntax(file, comment.line, msg)),
        }
    }
    // Two directives covering the same line merge naturally (both are
    // consulted); nothing to do. Keep the `at` field used.
    out.sort_by_key(|s| s.at);
    out
}

/// Parses `allow(D00x[, D00y...], reason = "...")`.
fn parse_allow(s: &str) -> Result<(Vec<Rule>, String), String> {
    let Some(inner) = s
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('('))
        .and_then(|t| t.rfind(')').map(|i| &t[..i]))
    else {
        return Err(format!(
            "malformed suppression `{s}`: expected `allow(D00x, reason = \"...\")`"
        ));
    };
    let mut rules = Vec::new();
    let mut reason = None;
    for part in split_top_level(inner) {
        let part = part.trim();
        if let Some(r) = part.strip_prefix("reason") {
            let r = r.trim_start();
            let Some(r) = r.strip_prefix('=') else {
                return Err("suppression `reason` must use `reason = \"...\"`".to_string());
            };
            let r = r.trim();
            let unquoted = r
                .strip_prefix('"')
                .and_then(|t| t.strip_suffix('"'))
                .ok_or_else(|| "suppression reason must be a quoted string".to_string())?;
            if unquoted.trim().is_empty() {
                return Err("suppression reason must not be empty".to_string());
            }
            reason = Some(unquoted.to_string());
        } else if let Some(rule) = Rule::parse(part) {
            rules.push(rule);
        } else {
            return Err(format!("unknown rule id `{part}` in suppression"));
        }
    }
    if rules.is_empty() {
        return Err("suppression names no rules".to_string());
    }
    let Some(reason) = reason else {
        return Err("suppression is missing its mandatory `reason = \"...\"`".to_string());
    };
    Ok((rules, reason))
}

/// Splits on commas not inside quotes (the reason string may contain
/// commas).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            ',' if !in_str => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    parts.push(&s[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(pkg: &str, src: &str) -> Vec<Finding> {
        scan_source(pkg, "mem.rs", src)
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = r#"
            pub fn lib_code(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { None::<u32>.unwrap(); }
            }
        "#;
        let findings = scan("hpcqc-core", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn test_modules_are_the_out_of_line_ones_in_test_regions() {
        let src = r#"
            mod engine;
            #[cfg(test)]
            mod tests;
            #[cfg(test)]
            mod inline {
                mod nested;
            }
        "#;
        assert_eq!(test_modules(src), ["tests", "nested"]);
    }

    #[test]
    fn only_a_cfg_that_implies_test_marks_test_code() {
        let helper = "fn helper() -> u8 { Some(1).unwrap() }";
        for (attr, marks) in [
            ("#[test]", true),
            ("#[cfg(test)]", true),
            ("#[cfg(all(unix, test))]", true),
            ("#[cfg(any(test, all(test, unix)))]", true),
            ("#[cfg(not(test))]", false),
            ("#[cfg(any(test, feature = \"x\"))]", false),
            ("#[cfg(all(not(test), unix))]", false),
            ("#[cfg_attr(test, allow(dead_code))]", false),
            ("#[tokio::test]", false),
        ] {
            let findings = scan("hpcqc-core", &format!("{attr}\n{helper}\n"));
            assert_eq!(findings.is_empty(), marks, "{attr}: {findings:?}");
        }
        assert!(test_modules("#[cfg(not(test))]\nmod name;\n").is_empty());
    }

    #[test]
    fn a_file_gated_on_test_is_test_code_in_full() {
        let src = "//! Helpers.\n#![allow(dead_code)]\n#![cfg(test)]\n\
                   fn helper() -> u8 { Some(1).unwrap() }\nmod more;\n";
        assert!(scan("hpcqc-core", src).is_empty());
        assert_eq!(test_modules(src), ["more"]);
        let later = "fn f() -> u8 { Some(1).unwrap() }\n#![cfg(test)]\n";
        assert_eq!(scan("hpcqc-core", later).len(), 1, "not at the top");
    }

    #[test]
    fn trailing_and_standalone_suppressions_cover() {
        let src = r#"
            fn a(x: Option<u32>) -> u32 {
                // hpcqc-lint: allow(D004, reason = "checked by caller")
                x.unwrap()
            }
            fn b(x: Option<u32>) -> u32 {
                x.unwrap() // hpcqc-lint: allow(D004, reason = "ditto")
            }
        "#;
        let findings = scan("hpcqc-core", src);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.suppressed));
    }

    #[test]
    fn suppression_without_reason_is_rejected() {
        let src = "// hpcqc-lint: allow(D004)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let findings = scan("hpcqc-core", src);
        let codes: Vec<&str> = findings.iter().map(|f| f.code.as_str()).collect();
        assert!(codes.contains(&"S001"), "{findings:?}");
        assert!(
            findings.iter().any(|f| f.code == "D004" && !f.suppressed),
            "an invalid suppression must not suppress"
        );
    }

    #[test]
    fn suppression_for_wrong_rule_does_not_cover() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() // hpcqc-lint: allow(D001, reason = \"misfiled\")\n}\n";
        let findings = scan("hpcqc-core", src);
        assert!(findings.iter().any(|f| f.code == "D004" && !f.suppressed));
    }

    #[test]
    fn d005_fires_only_with_float_literal_operand() {
        let src = "fn f(x: f64, n: u32) -> bool { x == 0.0 || n == 3 }\n";
        let findings = scan("hpcqc-metrics", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "D005");
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(3) + x.unwrap_or_default() }\n";
        assert!(scan("hpcqc-core", src).is_empty());
    }

    #[test]
    fn scope_gates_rules_by_package() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(scan("hpcqc-sched", src).len(), 1);
        assert!(scan("hpcqc-metrics", src).is_empty());
        let timing = "fn t() { let _ = std::time::Instant::now(); }\n";
        assert_eq!(scan("hpcqc-core", timing).len(), 1);
        assert!(scan("hpcqc", timing).is_empty());
    }
}
