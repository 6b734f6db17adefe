//! Smoke check that the disabled path really is a branch, not work.
//!
//! This file is the one sanctioned wall-clock shim in the obs crate: it uses
//! `std::time::Instant` to put a *generous* ceiling on the cost of emitting
//! through a null sink, under an `#[expect]` of the `clippy.toml` ban on
//! `Instant::now`. Production code must keep stamping records from the
//! engine's simulated `now_ms` only.

use jaws_obs::{Event, ObsSink};
use std::time::Instant;

#[test]
fn null_sink_emission_is_cheap() {
    let sink = ObsSink::null();
    #[expect(
        clippy::disallowed_methods,
        reason = "times the disabled-sink fast path; the time feeds no decision"
    )]
    let start = Instant::now();
    let mut emitted = 0u64;
    for t in 0..1_000_000u64 {
        // Mirror a real call site: check enabled() before building the event.
        if sink.enabled() {
            sink.emit(
                t as f64,
                Event::AtomRead {
                    timestep: 0,
                    morton: t,
                    hit: false,
                    io_ms: 0.0,
                },
            );
            emitted += 1;
        }
    }
    assert_eq!(emitted, 0, "null sink must report disabled");
    // A million enabled() checks are nanoseconds each; 2 s is orders of
    // magnitude of headroom so this never flakes on slow CI runners while
    // still catching an accidentally-hot disabled path (e.g. serializing
    // before checking).
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "disabled emission path too slow: {elapsed:?}"
    );
}
