//! The output oracle: every streamed record must carry a valid digest and
//! match, byte for byte after its `{"job":N,` prefix, the record the
//! in-process serving engine renders for the same spec.

use std::collections::HashMap;

use cambricon_f::runtime::manifest;
use cambricon_f::runtime::serve::{
    render_record_json, serve_specs, verify_record_json, JobOutput, ServeOptions,
};

use crate::gen::Spec;

/// A reference record: its core bytes, and the payload (which the traced
/// pass journals).
#[derive(Debug, Clone)]
pub struct Reference {
    pub core: String,
    pub label: String,
    pub machine: String,
    pub mode: &'static str,
    pub output: JobOutput,
}

/// References keyed by manifest line.
#[derive(Debug, Default)]
pub struct Oracle {
    refs: HashMap<String, Reference>,
}

/// What checking one streamed record found.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    /// The record's own digest (or its id) does not verify.
    Digest,
    /// The record verifies but differs from the reference.
    Mismatch {
        expected: String,
    },
}

/// The bytes after the leading `{"job":N,` — everything the fleet-wide
/// id rewrite leaves untouched.
fn core(record: &str) -> Option<&str> {
    let rest = record.strip_prefix("{\"job\":")?;
    let comma = rest.find(',')?;
    Some(&rest[comma + 1..])
}

impl Oracle {
    /// Renders the reference record of every distinct spec in-process
    /// (run this outside any timed window).
    pub fn build<'a>(specs: impl IntoIterator<Item = &'a Spec>) -> Result<Oracle, String> {
        let specs = crate::gen::distinct(specs);
        let mut parsed = Vec::with_capacity(specs.len());
        for spec in &specs {
            let line = spec.line();
            let mut one = manifest::parse_manifest(&line).map_err(|e| format!("{line}: {e}"))?;
            parsed.push(one.remove(0));
        }
        let report = serve_specs(&parsed, &ServeOptions::default())
            .map_err(|e| format!("reference run: {e}"))?;
        let mut refs = HashMap::with_capacity(specs.len());
        for (spec, record) in specs.iter().zip(&report.records) {
            let output = record
                .outcome
                .clone()
                .map_err(|e| format!("reference run: {} failed: {e}", spec.line()))?;
            let rendered = render_record_json(record);
            let core = core(&rendered).expect("rendered records start with the job id").to_string();
            let reference = Reference {
                core,
                label: record.label.clone(),
                machine: record.machine.clone(),
                mode: record.mode,
                output,
            };
            refs.insert(spec.line(), reference);
        }
        Ok(Oracle { refs })
    }

    pub fn get(&self, spec: &Spec) -> Option<&Reference> {
        self.refs.get(&spec.line())
    }

    /// Checks one streamed record of fleet job `id` against `spec`'s
    /// reference.
    pub fn check(&self, spec: &Spec, id: u64, body: &str) -> Verdict {
        let record = body.trim_end_matches('\n');
        if !verify_record_json(record, Some(id)) {
            return Verdict::Digest;
        }
        match (self.get(spec), core(record)) {
            (Some(r), Some(got)) if r.core == got => Verdict::Ok,
            (r, _) => Verdict::Mismatch {
                expected: r.map_or_else(|| "<no reference>".to_string(), |r| r.core.clone()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_match_rendered_records_and_reject_tampering() {
        let specs = crate::gen::hot_specs();
        let oracle = Oracle::build(&specs[..2]).unwrap();
        let r = oracle.get(&specs[0]).unwrap();
        let record = format!("{{\"job\":41,{}", r.core);
        assert_eq!(oracle.check(&specs[0], 41, &record), Verdict::Ok);
        assert_eq!(oracle.check(&specs[0], 40, &record), Verdict::Digest);
        assert!(matches!(oracle.check(&specs[1], 41, &record), Verdict::Mismatch { .. }));
        let tampered = record.replacen("true", "fals", 1);
        assert_eq!(oracle.check(&specs[0], 41, &tampered), Verdict::Digest);
    }
}
