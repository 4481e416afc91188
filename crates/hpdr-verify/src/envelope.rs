//! Shared JSON report envelope for the verification/audit CLIs.
//!
//! `hpdr verify` and `hpdr audit` emit sibling report documents
//! (`hpdr-verify/v1`, `hpdr-audit/v1`). Both wrap their payload in the
//! same envelope so downstream tooling can dispatch on one header shape:
//!
//! ```json
//! {"schema":"<family>/v1","ok":<bool>, ...payload fields...}
//! ```
//!
//! and both use the same process exit discipline: exit code 0 when the
//! run is clean, [`EXIT_FINDINGS`] when the tool ran to completion but
//! found problems (hazards, lint findings, unsound effect declarations,
//! interleaving violations). Internal errors surface through the normal
//! error path and share the same non-zero code — callers distinguish
//! the cases by whether a report document was produced.

use hpdr_sim::json::{esc, need_bool, need_str, JsonValue};

/// Schema tag of `hpdr verify --json` documents.
pub const SCHEMA_VERIFY: &str = "hpdr-verify/v1";

/// Schema tag of `hpdr audit --json` documents.
pub const SCHEMA_AUDIT: &str = "hpdr-audit/v1";

/// Unified exit code for "the tool ran and produced findings", shared
/// by `hpdr verify` and `hpdr audit`.
pub const EXIT_FINDINGS: i32 = 1;

/// Wrap pre-rendered payload fields (`"key":value,...` without the outer
/// braces) in the shared envelope. An empty payload is allowed.
pub fn wrap(schema: &str, ok: bool, payload: &str) -> String {
    if payload.is_empty() {
        format!("{{\"schema\":\"{}\",\"ok\":{ok}}}", esc(schema))
    } else {
        format!("{{\"schema\":\"{}\",\"ok\":{ok},{payload}}}", esc(schema))
    }
}

/// Check a parsed document's envelope header: `schema` must be the
/// expected tag and `ok` a boolean, whose value is returned.
///
/// Full schema validation lives with each report type, which walks the
/// rest of the same parsed tree.
pub fn header(doc: &JsonValue, schema: &str) -> Result<bool, String> {
    let got = need_str(doc, "schema", "envelope")?;
    if got != schema {
        return Err(format!("envelope: schema is '{got}', not {schema}"));
    }
    need_bool(doc, "ok", "envelope")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpdr_sim::json::parse_json;

    fn parsed_header(doc: &str, schema: &str) -> Result<bool, String> {
        header(&parse_json(doc)?, schema)
    }

    #[test]
    fn wrap_and_read_roundtrip() {
        let doc = wrap(SCHEMA_AUDIT, false, "\"configs\":[]");
        assert_eq!(
            doc,
            "{\"schema\":\"hpdr-audit/v1\",\"ok\":false,\"configs\":[]}"
        );
        assert_eq!(parsed_header(&doc, SCHEMA_AUDIT), Ok(false));
        assert!(parsed_header(&doc, SCHEMA_VERIFY).is_err());
        // Key order and whitespace do not matter; the flag's type does.
        let reordered = "{ \"ok\" : true ,\n \"schema\" : \"hpdr-audit/v1\" }";
        assert_eq!(parsed_header(reordered, SCHEMA_AUDIT), Ok(true));
        let quoted = "{\"schema\":\"hpdr-audit/v1\",\"ok\":\"true\"}";
        assert!(parsed_header(quoted, SCHEMA_AUDIT).is_err());
    }

    #[test]
    fn wrap_empty_payload() {
        let doc = wrap(SCHEMA_VERIFY, true, "");
        assert_eq!(doc, "{\"schema\":\"hpdr-verify/v1\",\"ok\":true}");
        assert_eq!(parsed_header(&doc, SCHEMA_VERIFY), Ok(true));
    }
}
