//! Helpers shared by the integration tests of this crate.

/// Replaces the numeric value of *every* `"key":<number>` occurrence of the
/// two wall-clock telemetry fields with `0` in serialized JSON.
pub fn mask_wallclock_fields(json: &str) -> String {
    let mut out = json.to_string();
    for key in ["policy_overhead_ns", "cache_overhead_ms_per_query"] {
        let pat = format!("\"{key}\":");
        assert!(out.contains(&pat), "field {key} absent from report JSON");
        let mut masked = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(i) = rest.find(&pat) {
            let start = i + pat.len();
            let end = start
                + rest[start..]
                    .find([',', '}'])
                    .expect("number is followed by a delimiter");
            masked.push_str(&rest[..start]);
            masked.push('0');
            rest = &rest[end..];
        }
        masked.push_str(rest);
        out = masked;
    }
    out
}
