//! Diagnostics and output rendering.

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule ID (`R3` or `R6`).
    pub rule: &'static str,
    /// Sub-check within the rule (e.g. `wait`, `unaudited-addition`).
    pub check: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// The result of a full lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations — any entry fails the gate.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the gate passes.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: {} [{}/{}]\n",
                v.file, v.line, v.message, v.rule, v.check
            ));
        }
        out.push_str(&format!(
            "vpm-lint: {} file(s), {} violation(s)\n",
            self.files_scanned,
            self.violations.len(),
        ));
        out
    }

    /// Render the machine-readable JSON report (stable field order,
    /// hand-rolled so the lint stays dependency-free).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"violations\":[");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"check\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
                esc(v.rule),
                esc(&v.check),
                esc(&v.file),
                v.line,
                esc(&v.message)
            ));
        }
        out.push_str(&format!(
            "],\"files_scanned\":{},\"ok\":{}}}",
            self.files_scanned,
            self.ok()
        ));
        out
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_reports_ok() {
        let mut r = Report::default();
        assert!(r.ok());
        r.violations.push(Violation {
            rule: "R3",
            check: "wait".into(),
            file: "a\"b.rs".into(),
            line: 3,
            message: "bad \\ thing".into(),
        });
        let j = r.render_json();
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("bad \\\\ thing"));
        assert!(j.ends_with("\"ok\":false}"));
    }
}
