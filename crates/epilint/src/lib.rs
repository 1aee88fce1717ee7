#![warn(missing_docs)]

//! # epilint — workspace static-analysis pass for determinism and panic safety
//!
//! A dependency-free, tidy-style lexical analyzer over the workspace
//! source tree. It enforces project-specific invariants that clippy
//! cannot express, all rooted in the paper's treatment of the random seed
//! as part of the simulator *input*: a `(theta, seed)` run is a
//! reproducible scientific artifact, so nondeterminism and panics in
//! library code are correctness bugs, not style issues.
//!
//! ## Rules
//!
//! | id | what it forbids | why |
//! |---|---|---|
//! | `panic-unwrap` | `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` in non-test library code | a panic kills the whole request/particle batch under load; fallible paths must return `Result` |
//! | `hash-iter` | `HashMap` / `HashSet` in simulation and SMC crates | iteration order is randomized per process, so any iteration silently breaks bit-reproducible replay; use `BTreeMap`/`BTreeSet` |
//! | `wall-clock` | `thread_rng` / `from_entropy` / `SystemTime` / `Instant::now` / `rand::random` in core crates | RNG streams and clocks must flow from checkpointable state (the paper's restart-with-new-parameters design) |
//! | `float-eq` | bare `==` / `!=` against float literals in likelihood/observation code | exact float equality is almost always a masked tolerance bug |
//! | `lossy-cast` | `as <int>` casts on float-bearing lines in likelihood/observation code | silent truncation of count variables skews likelihoods |
//! | `checkpoint-clone` | `SimCheckpoint` deep clones / byte round-trips (`SimCheckpoint::clone`, `checkpoint.clone()`, `.append_bytes(` / `SimCheckpoint::append_bytes`, `SimCheckpoint::from_bytes`) outside the interning module | inference code must alias checkpoints through `ckpool`'s `Arc` pool; a deep copy on the resample/jitter path silently reintroduces the per-particle memory blowup |
//! | `fs-write` | `std::fs` write operations (`File::create`, `OpenOptions`, `fs::write`, `fs::rename`, `fs::remove_*`, `fs::create_dir*`, `fs::copy`) outside `fs-exempt` paths | durability writes must stay in the audited persist module, where every record is checksummed and committed atomically; a stray write elsewhere bypasses the crash-recovery contract |
//! | `unsafe-containment` | `unsafe` blocks/fns/impls outside the `unsafe-allow` module set, and any `unsafe` site (allowlisted or not, test code included) without an adjacent `// SAFETY: <reason>` comment or `# Safety` doc section | the worker pool's type-erased jobs and raw slab writes are the only sanctioned unsafe surface; every site must state the invariant it relies on so the model checker / Miri / TSan suites know what to cover |
//! | `atomics-ordering` | in `atomics-paths` files: atomic load/store/RMW calls without an explicit `Ordering`, and any `Relaxed` ordering without an adjacent `// ORDER: <reason>` note | the pool's epoch-broadcast protocol gets its happens-before edges from the state mutex, not the atomics — each `Relaxed` must spell out why that is sufficient, or be strengthened |
//!
//! ## Waivers
//!
//! A violation is waived by an inline comment on the same line or the
//! line directly above:
//!
//! ```text
//! // epilint: allow(wall-clock) — telemetry only; never feeds simulation state
//! ```
//!
//! The rule list is comma-separated and a non-empty reason after the
//! closing parenthesis is mandatory — a waiver without a justification is
//! itself reported.
//!
//! ## Configuration
//!
//! `epilint.toml` at the workspace root holds one `[crate.<name>]` block
//! per linted crate selecting the active rules (see [`Config::parse`]).
//! Test code (`#[cfg(test)]` items, `tests/`, `benches/`), binary targets
//! (`main.rs`, `src/bin/`), and comments/strings are never linted.

use std::fmt;
use std::path::{Path, PathBuf};

/// A lint rule identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no panicking constructs in non-test library code.
    PanicUnwrap,
    /// R2: no randomized-iteration-order containers in sim/SMC crates.
    HashIter,
    /// R3: no wall-clock or OS-entropy reads in core crates.
    WallClock,
    /// R4a: no bare float equality in likelihood/observation code.
    FloatEq,
    /// R4b: no lossy integer casts on float-bearing likelihood lines.
    LossyCast,
    /// R5: no checkpoint deep clones or byte round-trips outside the
    /// interning module (`checkpoint-exempt` paths).
    CheckpointClone,
    /// R6: no filesystem writes outside the durability module
    /// (`fs-exempt` paths).
    FsWrite,
    /// R7: `unsafe` is contained to the `unsafe-allow` module set and
    /// every site carries an adjacent `// SAFETY:` justification.
    UnsafeContainment,
    /// R8: atomics in `atomics-paths` files state their `Ordering`
    /// explicitly, with an `// ORDER:` note justifying any `Relaxed`.
    AtomicsOrdering,
}

impl Rule {
    /// All rules, in diagnostic order.
    pub const ALL: [Rule; 9] = [
        Rule::PanicUnwrap,
        Rule::HashIter,
        Rule::WallClock,
        Rule::FloatEq,
        Rule::LossyCast,
        Rule::CheckpointClone,
        Rule::FsWrite,
        Rule::UnsafeContainment,
        Rule::AtomicsOrdering,
    ];

    /// The rule's configuration/waiver name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::PanicUnwrap => "panic-unwrap",
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::FloatEq => "float-eq",
            Rule::LossyCast => "lossy-cast",
            Rule::CheckpointClone => "checkpoint-clone",
            Rule::FsWrite => "fs-write",
            Rule::UnsafeContainment => "unsafe-containment",
            Rule::AtomicsOrdering => "atomics-ordering",
        }
    }

    /// Parse a rule name from configuration or a waiver.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule violated at a specific source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// What was found (the matched token or a short description).
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.what
        )
    }
}

/// Per-crate lint configuration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrateConfig {
    /// Crate directory name under `crates/`.
    pub name: String,
    /// Enabled rules.
    pub rules: Vec<Rule>,
    /// When non-empty, `float-eq`/`lossy-cast` apply only to files whose
    /// path ends with one of these suffixes.
    pub float_paths: Vec<String>,
    /// Files (path suffixes) exempt from `checkpoint-clone` — the
    /// interning module that owns the sanctioned deep-copy escape hatch.
    pub checkpoint_exempt: Vec<String>,
    /// Path fragments exempt from `fs-write` — the durability module
    /// that owns all on-disk record writes. Matched by substring so a
    /// directory (`persist/`) exempts every file under it.
    pub fs_exempt: Vec<String>,
    /// Files (path suffixes) permitted to *contain* `unsafe` under
    /// `unsafe-containment`. Sites in allowlisted files still need their
    /// adjacent `// SAFETY:` justification.
    pub unsafe_allow: Vec<String>,
    /// When non-empty, `atomics-ordering` applies only to files whose
    /// path ends with one of these suffixes (the pool module set).
    pub atomics_paths: Vec<String>,
    /// Workspace-block only: root-relative directories to scan (the
    /// per-crate blocks always scan `crates/<name>/src`).
    pub scan: Vec<String>,
    /// Workspace-block only: path fragments excluded from the scan
    /// (lint fixtures are test *data*, not code). Substring match.
    pub scan_exclude: Vec<String>,
}

impl CrateConfig {
    fn rule_applies(&self, rule: Rule, rel_path: &str) -> bool {
        if !self.rules.contains(&rule) {
            return false;
        }
        if matches!(rule, Rule::FloatEq | Rule::LossyCast) && !self.float_paths.is_empty() {
            return self.float_paths.iter().any(|p| rel_path.ends_with(p));
        }
        if rule == Rule::CheckpointClone
            && self.checkpoint_exempt.iter().any(|p| rel_path.ends_with(p))
        {
            return false;
        }
        if rule == Rule::FsWrite && self.fs_exempt.iter().any(|p| rel_path.contains(p.as_str())) {
            return false;
        }
        if rule == Rule::AtomicsOrdering && !self.atomics_paths.is_empty() {
            return self.atomics_paths.iter().any(|p| rel_path.ends_with(p));
        }
        true
    }
}

/// The workspace lint configuration: one block per linted crate, plus an
/// optional `[workspace]` block for rules that scan beyond `crates/*/src`
/// (the concurrency rules R7/R8 cover vendored code, tests, and
/// examples too).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Config {
    /// Per-crate blocks, in file order.
    pub crates: Vec<CrateConfig>,
    /// The `[workspace]` block: rules applied over the `scan` roots.
    pub workspace: Option<CrateConfig>,
}

/// Sentinel crate name marking the `[workspace]` block during parsing.
const WORKSPACE_BLOCK: &str = "(workspace)";

impl Config {
    /// Parse the `epilint.toml` config format: `[crate.<name>]` (or
    /// `[workspace]`) headers followed by `rules = a, b, c` and optional
    /// scoping lines (`float-paths`, `unsafe-allow`, `scan`, ...). Blank
    /// lines and `#` comments are ignored.
    ///
    /// # Errors
    /// Returns a `line: message` string on malformed input.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut crates: Vec<CrateConfig> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[workspace]" {
                crates.push(CrateConfig {
                    name: WORKSPACE_BLOCK.to_string(),
                    ..CrateConfig::default()
                });
                continue;
            }
            if let Some(rest) = line.strip_prefix("[crate.") {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section header", idx + 1))?;
                crates.push(CrateConfig {
                    name: name.to_string(),
                    ..CrateConfig::default()
                });
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", idx + 1))?;
            let block = crates
                .last_mut()
                .ok_or_else(|| format!("line {}: key outside any [crate.*] block", idx + 1))?;
            let values: Vec<&str> = value
                .split(',')
                .map(str::trim)
                .filter(|v| !v.is_empty())
                .collect();
            match key.trim() {
                "rules" => {
                    for v in values {
                        let rule = Rule::from_name(v)
                            .ok_or_else(|| format!("line {}: unknown rule '{v}'", idx + 1))?;
                        block.rules.push(rule);
                    }
                }
                "float-paths" => {
                    block.float_paths = values.into_iter().map(String::from).collect();
                }
                "checkpoint-exempt" => {
                    block.checkpoint_exempt = values.into_iter().map(String::from).collect();
                }
                "fs-exempt" => {
                    block.fs_exempt = values.into_iter().map(String::from).collect();
                }
                "unsafe-allow" => {
                    block.unsafe_allow = values.into_iter().map(String::from).collect();
                }
                "atomics-paths" => {
                    block.atomics_paths = values.into_iter().map(String::from).collect();
                }
                "scan" => {
                    block.scan = values.into_iter().map(String::from).collect();
                }
                "scan-exclude" => {
                    block.scan_exclude = values.into_iter().map(String::from).collect();
                }
                other => return Err(format!("line {}: unknown key '{other}'", idx + 1)),
            }
        }
        let workspace = crates
            .iter()
            .position(|c| c.name == WORKSPACE_BLOCK)
            .map(|pos| crates.remove(pos));
        Ok(Config { crates, workspace })
    }
}

/// Remove comments and string/char-literal contents from source text,
/// preserving line structure so line numbers and brace counts survive.
/// Carried across lines: block comments (nested) and multi-line strings.
#[derive(Clone, Debug, Default)]
struct Scrubber {
    block_comment_depth: usize,
    in_string: Option<StringEnd>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum StringEnd {
    /// Ordinary `"` string (escapes respected).
    Quote,
    /// Raw string closed by `"` followed by this many `#`s.
    RawHashes(usize),
}

impl Scrubber {
    /// Scrub one line, returning code-only text (non-code bytes replaced
    /// by spaces).
    fn scrub_line(&mut self, line: &str) -> String {
        let chars: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(line.len());
        let mut i = 0usize;
        while i < chars.len() {
            if self.block_comment_depth > 0 {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    self.block_comment_depth -= 1;
                    i += 2;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    self.block_comment_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                out.push(' ');
                continue;
            }
            if let Some(end) = &self.in_string {
                match end {
                    StringEnd::Quote => {
                        if chars[i] == '\\' {
                            i += 2;
                            out.push(' ');
                            continue;
                        }
                        if chars[i] == '"' {
                            self.in_string = None;
                        }
                    }
                    StringEnd::RawHashes(n) => {
                        if chars[i] == '"' {
                            let hashes = chars[i + 1..].iter().take_while(|&&c| c == '#').count();
                            if hashes >= *n {
                                i += 1 + n;
                                self.in_string = None;
                                out.push(' ');
                                continue;
                            }
                        }
                    }
                }
                i += 1;
                out.push(' ');
                continue;
            }
            let c = chars[i];
            match c {
                '/' if chars.get(i + 1) == Some(&'/') => break, // line comment
                '/' if chars.get(i + 1) == Some(&'*') => {
                    self.block_comment_depth = 1;
                    i += 2;
                    out.push(' ');
                }
                '"' => {
                    self.in_string = Some(StringEnd::Quote);
                    i += 1;
                    out.push(' ');
                }
                'r' if chars.get(i + 1) == Some(&'"')
                    || (chars.get(i + 1) == Some(&'#')
                        && chars[i + 1..].iter().take_while(|&&x| x == '#').count() > 0
                        && chars.get(
                            i + 1 + chars[i + 1..].iter().take_while(|&&x| x == '#').count(),
                        ) == Some(&'"')) =>
                {
                    let hashes = chars[i + 1..].iter().take_while(|&&x| x == '#').count();
                    self.in_string = Some(StringEnd::RawHashes(hashes));
                    i += 2 + hashes;
                    out.push(' ');
                }
                '\'' => {
                    // Char literal vs lifetime: `'x'` / `'\n'` are
                    // literals, `'a` (no closing quote nearby) is a
                    // lifetime and passes through.
                    if chars.get(i + 1) == Some(&'\\') {
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1;
                        }
                        i = (j + 1).min(chars.len());
                        out.push(' ');
                    } else if chars.get(i + 2) == Some(&'\'') {
                        i += 3;
                        out.push(' ');
                    } else {
                        out.push(c);
                        i += 1;
                    }
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        out
    }
}

/// Token needles per rule, matched with identifier-boundary checks.
fn needles(rule: Rule) -> &'static [&'static str] {
    match rule {
        Rule::PanicUnwrap => &[
            ".unwrap()",
            ".expect(",
            "panic!",
            "unreachable!",
            "todo!",
            "unimplemented!",
        ],
        Rule::HashIter => &["HashMap", "HashSet"],
        Rule::WallClock => &[
            "thread_rng",
            "from_entropy",
            "SystemTime",
            "Instant::now",
            "rand::random",
        ],
        Rule::CheckpointClone => &[
            "SimCheckpoint::clone",
            "checkpoint.clone()",
            ".append_bytes(",
            "SimCheckpoint::append_bytes",
            "SimCheckpoint::from_bytes",
        ],
        Rule::FsWrite => &[
            "File::create",
            "OpenOptions",
            "fs::write",
            "fs::rename",
            "fs::remove_file",
            "fs::remove_dir",
            "fs::remove_dir_all",
            "fs::create_dir",
            "fs::create_dir_all",
            "fs::copy",
        ],
        // FloatEq / LossyCast / UnsafeContainment / AtomicsOrdering use
        // structural scans, not plain needles.
        Rule::FloatEq | Rule::LossyCast | Rule::UnsafeContainment | Rule::AtomicsOrdering => &[],
    }
}

/// Atomic operation calls audited by `atomics-ordering`.
const ATOMIC_OPS: [&str; 11] = [
    ".load(",
    ".store(",
    ".swap(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_and(",
    ".fetch_or(",
    ".fetch_xor(",
    ".fetch_update(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
];

/// Explicit memory-ordering tokens accepted by the audit.
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `raw` carries `marker` followed by a non-empty reason.
/// Markers not ending in `:` (the `# Safety` doc heading) are accepted
/// bare — the doc section body below the heading is the reason.
fn note_with_reason(raw: &str, marker: &str) -> bool {
    match raw.find(marker) {
        Some(pos) => !marker.ends_with(':') || !raw[pos + marker.len()..].trim().is_empty(),
        None => false,
    }
}

/// Whether line `idx` — or the contiguous comment/attribute block
/// directly above it — carries one of `markers` with its reason. This is
/// the adjacency rule for `// SAFETY:` and `// ORDER:` justifications:
/// same line, or the comment block the site sits under.
fn has_adjacent_note(lines: &[&str], idx: usize, markers: &[&str]) -> bool {
    let hit = |raw: &str| markers.iter().any(|m| note_with_reason(raw, m));
    if hit(lines[idx]) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].trim_start();
        if !(t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!")) {
            break;
        }
        if hit(t) {
            return true;
        }
    }
    false
}

/// Find `needle` in `code` such that it is not embedded in a larger
/// identifier (checked on the alphanumeric edges of the needle).
fn find_token(code: &str, needle: &str) -> bool {
    let mut start = 0usize;
    while let Some(pos) = code[start..].find(needle) {
        let abs = start + pos;
        let before_ok = match needle.chars().next().map(is_ident_char) {
            Some(true) => !code[..abs].chars().next_back().is_some_and(is_ident_char),
            _ => true,
        };
        let after_ok = match needle.chars().next_back().map(is_ident_char) {
            Some(true) => !code[abs + needle.len()..]
                .chars()
                .next()
                .is_some_and(is_ident_char),
            _ => true,
        };
        if before_ok && after_ok {
            return true;
        }
        start = abs + needle.len().max(1);
    }
    false
}

/// Whether `token` is a float literal (`1.0`, `0.`, `1e-12`, `2.5f64`).
fn is_float_literal(token: &str) -> bool {
    let t = token
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    if t.is_empty() || !t.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return false;
    }
    (t.contains('.') || t.contains(['e', 'E'])) && t.parse::<f64>().is_ok()
}

/// Extract the token immediately left of byte position `pos`.
fn token_left(code: &str, pos: usize) -> &str {
    let bytes = code.as_bytes();
    let mut end = pos;
    while end > 0 && bytes[end - 1] == b' ' {
        end -= 1;
    }
    let mut start = end;
    while start > 0 {
        let c = bytes[start - 1] as char;
        if is_ident_char(c) || c == '.' {
            start -= 1;
        } else {
            break;
        }
    }
    &code[start..end]
}

/// Extract the token immediately right of byte position `pos`.
fn token_right(code: &str, pos: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = pos;
    while start < bytes.len() && bytes[start] == b' ' {
        start += 1;
    }
    let mut end = start;
    while end < bytes.len() {
        let c = bytes[end] as char;
        if is_ident_char(c) || c == '.' || (end == start && c == '-') {
            end += 1;
        } else {
            break;
        }
    }
    &code[start..end]
}

/// Structural scan for bare float equality: `==` / `!=` with a float
/// literal on either side.
fn float_eq_hit(code: &str) -> Option<String> {
    for op in ["==", "!="] {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(op) {
            let abs = from + pos;
            from = abs + op.len();
            // Skip `<=`, `>=`, `!==`-like overlaps and pattern arrows.
            let prev = code[..abs].chars().next_back();
            if matches!(prev, Some('<') | Some('>') | Some('=') | Some('!')) {
                continue;
            }
            if code[abs + op.len()..].starts_with('=') {
                continue;
            }
            let left = token_left(code, abs);
            let right = token_right(code, abs + op.len());
            if is_float_literal(left) || is_float_literal(right) {
                return Some(format!(
                    "bare float comparison `{} {op} {}`",
                    if left.is_empty() { "_" } else { left },
                    if right.is_empty() { "_" } else { right }
                ));
            }
        }
    }
    None
}

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

const FLOAT_EVIDENCE: [&str; 8] = [
    "f64", "f32", ".floor()", ".ceil()", ".round()", ".sqrt()", ".fract()", ".abs()",
];

/// Structural scan for lossy `as <int>` casts on float-bearing lines.
fn lossy_cast_hit(code: &str) -> Option<String> {
    let float_line = FLOAT_EVIDENCE.iter().any(|e| code.contains(e))
        || code
            .split(|c: char| !(is_ident_char(c) || c == '.'))
            .any(is_float_literal);
    if !float_line {
        return None;
    }
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(" as ") {
        let abs = from + pos;
        from = abs + 4;
        let target = token_right(code, abs + 4);
        if INT_TYPES.contains(&target) {
            return Some(format!(
                "lossy `as {target}` cast on a float-bearing expression"
            ));
        }
    }
    None
}

/// The waiver marker, assembled so epilint's own source does not trip
/// its waiver parser on this literal.
const WAIVER_MARKER: &str = concat!("epilint: ", "allow(");

/// Parse waivers on a raw source line (marker, then a comma-separated
/// rule list in parentheses, then a mandatory reason). Returns the
/// waived rules, or an error description when the waiver is malformed
/// (unknown rule, missing reason).
fn parse_waiver(raw: &str) -> Result<Vec<Rule>, String> {
    let Some(pos) = raw.find(WAIVER_MARKER) else {
        return Ok(Vec::new());
    };
    let rest = &raw[pos + WAIVER_MARKER.len()..];
    let Some(close) = rest.find(')') else {
        return Err("unterminated epilint waiver".to_string());
    };
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        match Rule::from_name(name) {
            Some(r) => rules.push(r),
            None => return Err(format!("waiver names unknown rule '{name}'")),
        }
    }
    let reason = rest[close + 1..].trim_matches(|c: char| !c.is_alphanumeric());
    if reason.trim().is_empty() {
        return Err("waiver missing a reason after the rule list".to_string());
    }
    Ok(rules)
}

/// Join the scrubbed lines of the call statement starting at `idx`:
/// lines are appended while the statement's parentheses stay open, up to
/// a small bound. This is how the atomics audit finds an `Ordering`
/// argument that rustfmt pushed onto a continuation line.
fn call_window(scrubbed: &[String], idx: usize) -> String {
    let mut window = String::new();
    let mut depth = 0i64;
    for (j, line) in scrubbed.iter().enumerate().skip(idx).take(8) {
        window.push_str(line);
        window.push(' ');
        depth += line.matches('(').count() as i64 - line.matches(')').count() as i64;
        if j >= idx && depth <= 0 {
            break;
        }
    }
    window
}

/// Tracks `#[cfg(test)]`-gated items so their bodies are skipped.
#[derive(Clone, Copy, Debug, Default)]
struct TestSkip {
    /// Saw the attribute; waiting for the item's opening brace.
    pending: bool,
    /// Inside the gated item at this brace depth (relative).
    depth: Option<i64>,
}

/// Lint one file's source text under a crate configuration.
///
/// `rel_path` is used in diagnostics and for `float-paths` scoping.
pub fn lint_source(config: &CrateConfig, rel_path: &str, source: &str) -> Vec<Violation> {
    let mut scrubber = Scrubber::default();
    let mut skip = TestSkip::default();
    let mut violations = Vec::new();
    let lines: Vec<&str> = source.lines().collect();
    // Pre-scrubbed lines let the atomics audit look ahead across a
    // multi-line call for its `Ordering` argument.
    let scrubbed: Vec<String> = lines.iter().map(|l| scrubber.scrub_line(l)).collect();
    let mut scrubbed_prev_waivers: Vec<Rule> = Vec::new();

    for (idx, raw) in lines.iter().enumerate() {
        let code = &scrubbed[idx];

        // Waivers are parsed from the raw line (they live in comments).
        let (own_waivers, waiver_error) = match parse_waiver(raw) {
            Ok(w) => (w, None),
            Err(msg) => (Vec::new(), Some(msg)),
        };
        let waived =
            |rule: Rule| own_waivers.contains(&rule) || scrubbed_prev_waivers.contains(&rule);

        // Track and honor #[cfg(test)] item skipping.
        let in_test = {
            if code.contains("#[cfg(test)]") {
                skip.pending = true;
            }
            let opens = code.matches('{').count() as i64;
            let closes = code.matches('}').count() as i64;
            let was_inside = skip.depth.is_some();
            if skip.pending && opens > 0 {
                skip.pending = false;
                skip.depth = Some(opens - closes);
                true
            } else if skip.pending && code.contains(';') {
                skip.pending = false;
                was_inside
            } else if let Some(d) = skip.depth {
                let nd = d + opens - closes;
                skip.depth = if nd <= 0 { None } else { Some(nd) };
                true
            } else {
                was_inside || skip.pending
            }
        };
        // R7 applies to test code too: `unsafe` in a test harness is
        // still unsafe, and its justification discipline is the same.
        if config.rule_applies(Rule::UnsafeContainment, rel_path)
            && !waived(Rule::UnsafeContainment)
            && find_token(code, "unsafe")
        {
            if !config.unsafe_allow.iter().any(|p| rel_path.ends_with(p)) {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::UnsafeContainment,
                    what: "`unsafe` outside the allowlisted module set".to_string(),
                });
            }
            if !has_adjacent_note(&lines, idx, &["SAFETY:", "# Safety"]) {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::UnsafeContainment,
                    what:
                        "undocumented `unsafe` site (missing adjacent `// SAFETY:` justification)"
                            .to_string(),
                });
            }
        }
        if in_test {
            scrubbed_prev_waivers = own_waivers;
            continue;
        }
        if let Some(msg) = waiver_error {
            violations.push(Violation {
                file: rel_path.to_string(),
                line: idx + 1,
                rule: Rule::PanicUnwrap,
                what: msg,
            });
        }

        for rule in [
            Rule::PanicUnwrap,
            Rule::HashIter,
            Rule::WallClock,
            Rule::CheckpointClone,
            Rule::FsWrite,
        ] {
            if !config.rule_applies(rule, rel_path) || waived(rule) {
                continue;
            }
            for needle in needles(rule) {
                if find_token(code, needle) {
                    violations.push(Violation {
                        file: rel_path.to_string(),
                        line: idx + 1,
                        rule,
                        what: format!("`{}`", needle.trim_matches(['.', '(', ')'])),
                    });
                }
            }
        }
        if config.rule_applies(Rule::FloatEq, rel_path) && !waived(Rule::FloatEq) {
            if let Some(what) = float_eq_hit(code) {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::FloatEq,
                    what,
                });
            }
        }
        if config.rule_applies(Rule::LossyCast, rel_path) && !waived(Rule::LossyCast) {
            if let Some(what) = lossy_cast_hit(code) {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::LossyCast,
                    what,
                });
            }
        }
        if config.rule_applies(Rule::AtomicsOrdering, rel_path) && !waived(Rule::AtomicsOrdering) {
            if ATOMIC_OPS.iter().any(|n| find_token(code, n)) {
                // The `Ordering` argument may sit on a continuation line
                // of the same call; follow the open parenthesis.
                let window = call_window(&scrubbed, idx);
                if !ORDERINGS.iter().any(|o| find_token(&window, o)) {
                    violations.push(Violation {
                        file: rel_path.to_string(),
                        line: idx + 1,
                        rule: Rule::AtomicsOrdering,
                        what: "atomic operation without an explicit `Ordering`".to_string(),
                    });
                }
            }
            if find_token(code, "Relaxed") && !has_adjacent_note(&lines, idx, &["ORDER:"]) {
                violations.push(Violation {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: Rule::AtomicsOrdering,
                    what: "`Relaxed` ordering without an adjacent `// ORDER:` justification"
                        .to_string(),
                });
            }
        }

        scrubbed_prev_waivers = own_waivers;
    }
    violations
}

/// Whether a file is library code (binary targets may panic and time
/// themselves; they are driver shells around the libraries).
fn is_library_file(rel: &Path) -> bool {
    let is_bin = rel.components().any(|c| c.as_os_str() == "bin")
        || rel.file_name().is_some_and(|f| f == "main.rs");
    !is_bin
}

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in rd {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            out.extend(rust_files(&path)?);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Lint the whole workspace rooted at `root` using `config`.
///
/// Scans `crates/<name>/src/**/*.rs` for each configured crate, skipping
/// binary targets. Diagnostics use workspace-relative paths.
///
/// # Errors
/// Returns an error string on filesystem failures.
pub fn lint_workspace(root: &Path, config: &Config) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for crate_cfg in &config.crates {
        let src = root.join("crates").join(&crate_cfg.name).join("src");
        if !src.is_dir() {
            return Err(format!(
                "configured crate '{}' has no src dir at {}",
                crate_cfg.name,
                src.display()
            ));
        }
        for file in rust_files(&src)? {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            if !is_library_file(Path::new(&rel)) {
                continue;
            }
            let source = std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            violations.extend(lint_source(crate_cfg, &rel, &source));
        }
    }
    if let Some(ws) = &config.workspace {
        for dir in &ws.scan {
            let base = root.join(dir);
            if !base.is_dir() {
                return Err(format!(
                    "workspace scan root '{dir}' is not a directory at {}",
                    base.display()
                ));
            }
            for file in rust_files(&base)? {
                let rel = file
                    .strip_prefix(root)
                    .unwrap_or(&file)
                    .to_string_lossy()
                    .replace('\\', "/");
                if ws.scan_exclude.iter().any(|x| rel.contains(x.as_str())) {
                    continue;
                }
                let source = std::fs::read_to_string(&file)
                    .map_err(|e| format!("read {}: {e}", file.display()))?;
                violations.extend(lint_source(ws, &rel, &source));
            }
        }
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_all() -> CrateConfig {
        CrateConfig {
            name: "x".into(),
            rules: Rule::ALL.to_vec(),
            ..CrateConfig::default()
        }
    }

    #[test]
    fn scrubber_strips_comments_and_strings() {
        let mut s = Scrubber::default();
        assert_eq!(
            s.scrub_line("let x = 1; // .unwrap()").trim_end(),
            "let x = 1;"
        );
        let code = s.scrub_line("let s = \".unwrap()\"; panic!(\"boom\");");
        assert!(!code.contains(".unwrap()"));
        assert!(code.contains("panic!"));
    }

    #[test]
    fn scrubber_tracks_block_comments_across_lines() {
        let mut s = Scrubber::default();
        s.scrub_line("/* start");
        let mid = s.scrub_line("  .unwrap() inside");
        assert_eq!(mid.trim(), "");
        let after = s.scrub_line("end */ .unwrap()");
        assert!(after.contains(".unwrap()"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let mut s = Scrubber::default();
        let code = s.scrub_line("impl<'a> Foo<'a> { fn f(&'a self) {} }");
        assert!(code.contains("impl<'a>"));
        let code2 = s.scrub_line("let c = 'x'; let n = '\\n'; y.unwrap()");
        assert!(!code2.contains('x'));
        assert!(code2.contains(".unwrap()"));
    }

    #[test]
    fn detects_each_panic_construct() {
        for line in [
            "x.unwrap();",
            "x.expect(\"m\");",
            "panic!(\"die\");",
            "unreachable!();",
            "todo!();",
            "unimplemented!();",
        ] {
            let v = lint_source(&cfg_all(), "f.rs", line);
            assert_eq!(v.len(), 1, "{line}");
            assert_eq!(v[0].rule, Rule::PanicUnwrap, "{line}");
        }
        // Non-panicking relatives do not match.
        for line in [
            "x.unwrap_or(0);",
            "x.unwrap_or_else(f);",
            "x.expect_err(\"m\");",
        ] {
            assert!(lint_source(&cfg_all(), "f.rs", line).is_empty(), "{line}");
        }
    }

    #[test]
    fn detects_hash_and_clock_tokens() {
        let v = lint_source(&cfg_all(), "f.rs", "use std::collections::HashMap;");
        assert_eq!(v[0].rule, Rule::HashIter);
        let v = lint_source(&cfg_all(), "f.rs", "let t = Instant::now();");
        assert_eq!(v[0].rule, Rule::WallClock);
        let v = lint_source(&cfg_all(), "f.rs", "let mut r = rand::thread_rng();");
        assert_eq!(v[0].rule, Rule::WallClock);
        // Identifier-boundary: `MyHashMapLike` is not a hit.
        assert!(lint_source(&cfg_all(), "f.rs", "struct MyHashMapLike;").is_empty());
    }

    #[test]
    fn float_eq_and_lossy_cast() {
        let v = lint_source(&cfg_all(), "f.rs", "if x == 1.0 { }");
        assert_eq!(v[0].rule, Rule::FloatEq);
        let v = lint_source(&cfg_all(), "f.rs", "if 0.0 != y { }");
        assert_eq!(v[0].rule, Rule::FloatEq);
        assert!(lint_source(&cfg_all(), "f.rs", "if x == 1 { }").is_empty());
        assert!(lint_source(&cfg_all(), "f.rs", "if x <= 1.0 { }").is_empty());
        let v = lint_source(&cfg_all(), "f.rs", "let n = (x * 2.0) as u64;");
        assert_eq!(v[0].rule, Rule::LossyCast);
        // Int-to-int casts on int-only lines pass.
        assert!(lint_source(&cfg_all(), "f.rs", "let n = m as u64;").is_empty());
    }

    #[test]
    fn detects_checkpoint_deep_clones() {
        for line in [
            "let c = p.checkpoint.clone();",
            "let c = SimCheckpoint::clone(&ck);",
            "ck.append_bytes(&mut out);",
            "SimCheckpoint::append_bytes(&ck, &mut out);",
            "let ck = SimCheckpoint::from_bytes(&raw)?;",
        ] {
            let v = lint_source(&cfg_all(), "f.rs", line);
            assert_eq!(v.len(), 1, "{line}");
            assert_eq!(v[0].rule, Rule::CheckpointClone, "{line}");
        }
        // Arc bumps and other clones are fine.
        for line in [
            "let c = Arc::clone(&p.checkpoint);",
            "let t = p.trajectory.clone();",
            "let my_checkpoint.clone();",
        ] {
            assert!(lint_source(&cfg_all(), "f.rs", line).is_empty(), "{line}");
        }
    }

    #[test]
    fn detects_fs_writes() {
        for line in [
            "let f = File::create(path)?;",
            "let f = OpenOptions::new().append(true).open(p)?;",
            "fs::write(&tmp, bytes)?;",
            "std::fs::rename(&tmp, &dst)?;",
            "fs::remove_file(&stale)?;",
            "fs::remove_dir_all(&root)?;",
            "fs::create_dir_all(&root)?;",
            "fs::copy(&a, &b)?;",
        ] {
            let v = lint_source(&cfg_all(), "f.rs", line);
            assert_eq!(v.len(), 1, "{line}: {v:?}");
            assert_eq!(v[0].rule, Rule::FsWrite, "{line}");
        }
        // Reads are not writes.
        for line in [
            "let data = fs::read(&path)?;",
            "let text = fs::read_to_string(&path)?;",
            "for e in fs::read_dir(&dir)? {}",
        ] {
            assert!(lint_source(&cfg_all(), "f.rs", line).is_empty(), "{line}");
        }
    }

    #[test]
    fn fs_write_rule_respects_exempt_paths() {
        let cfg = CrateConfig {
            name: "x".into(),
            rules: vec![Rule::FsWrite],
            fs_exempt: vec!["persist/".into()],
            ..CrateConfig::default()
        };
        let line = "fs::rename(&tmp, &dst)?;";
        assert!(lint_source(&cfg, "crates/x/src/persist/dir.rs", line).is_empty());
        assert_eq!(lint_source(&cfg, "crates/x/src/sis.rs", line).len(), 1);
        // The standard waiver escape works too.
        let waived = "// epilint: allow(fs-write) — sanctioned\nfs::rename(&tmp, &dst)?;";
        assert!(lint_source(&cfg, "crates/x/src/sis.rs", waived).is_empty());
    }

    #[test]
    fn checkpoint_rule_respects_exempt_paths() {
        let cfg = CrateConfig {
            name: "x".into(),
            rules: vec![Rule::CheckpointClone],
            checkpoint_exempt: vec!["ckpool.rs".into()],
            ..CrateConfig::default()
        };
        let line = "let c = SimCheckpoint::clone(&ck);";
        assert!(lint_source(&cfg, "crates/x/src/ckpool.rs", line).is_empty());
        assert_eq!(lint_source(&cfg, "crates/x/src/sis.rs", line).len(), 1);
        // The standard waiver escape works too.
        let waived =
            "// epilint: allow(checkpoint-clone) — sanctioned\nlet c = SimCheckpoint::clone(&ck);";
        assert!(lint_source(&cfg, "crates/x/src/sis.rs", waived).is_empty());
    }

    #[test]
    fn float_rules_respect_path_scoping() {
        let cfg = CrateConfig {
            name: "x".into(),
            rules: vec![Rule::FloatEq],
            float_paths: vec!["likelihood.rs".into()],
            ..CrateConfig::default()
        };
        assert_eq!(
            lint_source(&cfg, "crates/x/src/likelihood.rs", "x == 1.0;").len(),
            1
        );
        assert!(lint_source(&cfg, "crates/x/src/other.rs", "x == 1.0;").is_empty());
    }

    #[test]
    fn waivers_suppress_same_line_and_line_above() {
        let src = "x.unwrap(); // epilint: allow(panic-unwrap) — test fixture\n";
        assert!(lint_source(&cfg_all(), "f.rs", src).is_empty());
        let src = "// epilint: allow(panic-unwrap) — covered by caller\nx.unwrap();\n";
        assert!(lint_source(&cfg_all(), "f.rs", src).is_empty());
        // A waiver two lines above does not reach.
        let src = "// epilint: allow(panic-unwrap) — too far\n\nx.unwrap();\n";
        assert_eq!(lint_source(&cfg_all(), "f.rs", src).len(), 1);
        // Waiving one rule leaves others active.
        let src = "let m: HashMap<u32, u32> = x.unwrap(); // epilint: allow(panic-unwrap) — r\n";
        let v = lint_source(&cfg_all(), "f.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::HashIter);
    }

    #[test]
    fn waiver_requires_reason_and_known_rule() {
        let v = lint_source(
            &cfg_all(),
            "f.rs",
            "x.unwrap(); // epilint: allow(panic-unwrap)\n",
        );
        assert!(v.iter().any(|v| v.what.contains("reason")), "{v:?}");
        let v = lint_source(
            &cfg_all(),
            "f.rs",
            "// epilint: allow(no-such-rule) — reason\n",
        );
        assert!(v.iter().any(|v| v.what.contains("unknown rule")), "{v:?}");
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "\
fn lib() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        x.unwrap();
        panic!(\"fine in tests\");
    }
}
";
        assert!(lint_source(&cfg_all(), "f.rs", src).is_empty());
        // Code after the gated item is linted again.
        let src2 = format!("{src}\nfn after() {{ y.unwrap(); }}\n");
        assert_eq!(lint_source(&cfg_all(), "f.rs", &src2).len(), 1);
    }

    #[test]
    fn diagnostics_carry_file_line_rule() {
        let src = "fn f() {\n    x.unwrap();\n}\n";
        let v = lint_source(&cfg_all(), "crates/x/src/f.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert_eq!(
            v[0].to_string(),
            "crates/x/src/f.rs:2: [panic-unwrap] `unwrap`"
        );
    }

    #[test]
    fn unsafe_containment_flags_unlisted_and_undocumented() {
        // Outside the allowlist: both the containment breach and the
        // missing justification fire on the one site.
        let v = lint_source(&cfg_all(), "crates/x/src/f.rs", "unsafe { ptr.write(v) }");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::UnsafeContainment));
        assert!(v[0].what.contains("allowlisted"));
        assert!(v[1].what.contains("undocumented"));
    }

    #[test]
    fn unsafe_containment_accepts_adjacent_safety_comment() {
        let cfg = CrateConfig {
            unsafe_allow: vec!["pool.rs".into()],
            ..cfg_all()
        };
        // Same line.
        let src = "unsafe { ptr.write(v) } // SAFETY: slot owned exclusively\n";
        assert!(lint_source(&cfg, "pool.rs", src).is_empty());
        // Comment block directly above, including multi-line blocks.
        let src = "// SAFETY: the cursor hands each index to\n// exactly one worker.\nunsafe { ptr.write(v) }\n";
        assert!(lint_source(&cfg, "pool.rs", src).is_empty());
        // A `# Safety` doc section on an unsafe fn counts.
        let src = "/// Does things.\n///\n/// # Safety\n/// `ctx` must be live.\nunsafe fn run(ctx: usize) {}\n";
        assert!(lint_source(&cfg, "pool.rs", src).is_empty());
        // A reasonless SAFETY marker does not.
        let src = "// SAFETY:\nunsafe { ptr.write(v) }\n";
        assert_eq!(lint_source(&cfg, "pool.rs", src).len(), 1);
        // Non-adjacent justification does not reach across code lines.
        let src = "// SAFETY: too far\nlet x = 1;\nunsafe { ptr.write(v) }\n";
        assert_eq!(lint_source(&cfg, "pool.rs", src).len(), 1);
    }

    #[test]
    fn unsafe_containment_applies_inside_test_code() {
        // Unlike the panic/clock rules, R7 audits #[cfg(test)] items too.
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() {\n        unsafe { q.write(1) }\n    }\n}\n";
        let v = lint_source(&cfg_all(), "crates/x/src/f.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::UnsafeContainment));
        // The standard waiver still works there.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        // epilint: allow(unsafe-containment) — harness fixture\n        unsafe { q.write(1) }\n    }\n}\n";
        assert!(lint_source(&cfg_all(), "crates/x/src/f.rs", src).is_empty());
    }

    #[test]
    fn unsafe_word_boundaries_and_scrubbing() {
        // `unsafe` embedded in identifiers, strings, or comments is not
        // an unsafe site.
        for src in [
            "let unsafe_allow = 3;",
            "let s = \"unsafe\";",
            "// unsafe is discussed here",
        ] {
            assert!(lint_source(&cfg_all(), "f.rs", src).is_empty(), "{src}");
        }
    }

    #[test]
    fn atomics_ordering_requires_explicit_ordering() {
        let v = lint_source(&cfg_all(), "pool.rs", "cursor.fetch_add(1);");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::AtomicsOrdering);
        assert!(v[0].what.contains("explicit"));
        // Explicit non-Relaxed orderings pass without a note.
        for src in [
            "cursor.fetch_add(1, Ordering::AcqRel);",
            "flag.store(true, Ordering::Release);",
            "let v = flag.load(Ordering::Acquire);",
        ] {
            assert!(lint_source(&cfg_all(), "pool.rs", src).is_empty(), "{src}");
        }
        // An ordering on the call's continuation line is found.
        let src = "cursor.fetch_add(\n    1,\n    Ordering::SeqCst,\n);\n";
        assert!(lint_source(&cfg_all(), "pool.rs", src).is_empty());
    }

    #[test]
    fn relaxed_needs_adjacent_order_note() {
        let v = lint_source(
            &cfg_all(),
            "pool.rs",
            "cursor.fetch_add(1, Ordering::Relaxed);",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].what.contains("ORDER"));
        let src = "// ORDER: RMW atomicity alone partitions the range;\n// visibility is ordered by the join.\nlet lo = cursor.fetch_add(1, Ordering::Relaxed);\n";
        assert!(lint_source(&cfg_all(), "pool.rs", src).is_empty());
        // A reasonless ORDER note is not a justification.
        let src = "// ORDER:\nlet lo = cursor.fetch_add(1, Ordering::Relaxed);\n";
        assert_eq!(lint_source(&cfg_all(), "pool.rs", src).len(), 1);
    }

    #[test]
    fn atomics_ordering_respects_path_scoping_and_tests() {
        let cfg = CrateConfig {
            atomics_paths: vec!["src/runner.rs".into()],
            ..cfg_all()
        };
        let src = "cursor.fetch_add(1, Ordering::Relaxed);";
        assert_eq!(
            lint_source(&cfg, "crates/epismc/src/runner.rs", src).len(),
            1
        );
        assert!(lint_source(&cfg, "crates/x/src/lib.rs", src).is_empty());
        // Test-code atomics (telemetry counters in unit tests) are not
        // part of the audited protocol surface.
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {\n        c.fetch_add(1, Ordering::Relaxed);\n    }\n}\n";
        assert!(lint_source(&cfg, "crates/epismc/src/runner.rs", src).is_empty());
    }

    #[test]
    fn config_parses_workspace_block() {
        let cfg = Config::parse(
            "[workspace]\nrules = unsafe-containment, atomics-ordering\nscan = src, tests, vendor\nscan-exclude = tests/fixtures/\nunsafe-allow = crates/epismc/src/runner.rs\natomics-paths = crates/epismc/src/runner.rs\n\n[crate.episim]\nrules = panic-unwrap\n",
        )
        .unwrap();
        assert_eq!(cfg.crates.len(), 1);
        let ws = cfg.workspace.expect("workspace block");
        assert_eq!(
            ws.rules,
            vec![Rule::UnsafeContainment, Rule::AtomicsOrdering]
        );
        assert_eq!(ws.scan, vec!["src", "tests", "vendor"]);
        assert_eq!(ws.scan_exclude, vec!["tests/fixtures/"]);
        assert_eq!(ws.unsafe_allow, vec!["crates/epismc/src/runner.rs"]);
        assert_eq!(ws.atomics_paths, vec!["crates/epismc/src/runner.rs"]);
    }

    #[test]
    fn config_parses_blocks() {
        let cfg = Config::parse(
            "# comment\n[crate.episim]\nrules = panic-unwrap, hash-iter\n\n[crate.epismc]\nrules = wall-clock, checkpoint-clone, fs-write\nfloat-paths = likelihood.rs, observation.rs\ncheckpoint-exempt = ckpool.rs\nfs-exempt = persist/\n",
        )
        .unwrap();
        assert_eq!(cfg.crates.len(), 2);
        assert_eq!(cfg.crates[0].rules, vec![Rule::PanicUnwrap, Rule::HashIter]);
        assert_eq!(cfg.crates[1].float_paths.len(), 2);
        assert_eq!(
            cfg.crates[1].checkpoint_exempt,
            vec!["ckpool.rs".to_string()]
        );
        assert_eq!(cfg.crates[1].fs_exempt, vec!["persist/".to_string()]);
        assert!(Config::parse("rules = panic-unwrap\n").is_err());
        assert!(Config::parse("[crate.x]\nrules = bogus\n").is_err());
    }
}
