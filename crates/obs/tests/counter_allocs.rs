//! Updating telemetry that already exists must not allocate: the hot
//! paths count into existing counters, gauges and histograms once per
//! event, and a name is copied only when its entry is first created.
//! This binary installs the counting allocator, so the counts it reads
//! are real.

use disengage_obs::profile::alloc_stats;
use disengage_obs::{key_segment, Collector, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocation calls made while running `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = alloc_stats().calls;
    f();
    alloc_stats().calls - before
}

// One test function: the counting allocator is process-wide, so a
// second test running on another thread would leak into the counts.
#[test]
fn updates_to_existing_entries_do_not_allocate() {
    let obs = Collector::new();
    obs.add("parse.dis.parsed", 0);
    obs.gauge("corpus.total_miles", 0.0);
    obs.record("nlp.margin", 0.0);

    let counter = allocations(|| {
        for _ in 0..1_000 {
            obs.add("parse.dis.parsed", 1);
        }
    });
    assert_eq!(counter, 0, "1,000 adds to an existing counter allocated");
    assert_eq!(obs.report().counter("parse.dis.parsed"), 1_000);

    let gauge = allocations(|| {
        for i in 0..1_000 {
            obs.gauge("corpus.total_miles", f64::from(i));
        }
    });
    assert_eq!(gauge, 0, "1,000 writes to an existing gauge allocated");

    let hist = allocations(|| {
        for i in 0..1_000 {
            obs.record("nlp.margin", f64::from(i % 7));
        }
        obs.record_all("nlp.margin", (0..1_000).map(f64::from));
    });
    assert_eq!(hist, 0, "samples into an existing histogram allocated");

    // `key_segment` builds its result in its one allocation.
    let segment = allocations(|| {
        assert_eq!(key_segment("Mercedes-Benz"), "mercedes_benz");
    });
    assert_eq!(segment, 1, "key_segment allocated more than its result");

    // The first update of a new name allocates (the owned key), and
    // the allocator really is counting.
    let fresh = allocations(|| obs.add("parse.dis.lines", 1));
    assert!(fresh > 0, "creating a counter must allocate its key");
}
