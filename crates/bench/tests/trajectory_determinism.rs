//! A trajectory is a pure function of its seed — down to the allocation
//! count when the `count-allocs` feature is on.
//!
//! `allocs_per_run` counts allocations process-wide, so this check lives
//! in its own test binary: no other test shares the process and leaks
//! allocations into the count.
//!
//! ```text
//! cargo test -p urb-bench --features count-allocs --test trajectory_determinism
//! ```

use urb_bench::trajectory::{collect, TrajectoryConfig};

fn tiny() -> TrajectoryConfig {
    TrajectoryConfig {
        seed: 5,
        seeds_per_cell: 1,
        ids: vec!["e1".into(), "e11".into()],
        load_topics: None,
        rates: None,
    }
}

#[test]
fn deterministic_for_a_fixed_seed() {
    let a = collect(&tiny());
    let b = collect(&tiny());
    assert_eq!(a, b);
    if cfg!(feature = "count-allocs") {
        assert!(
            a.points.iter().all(|p| p.allocs_per_run.is_some()),
            "the counting allocator reports allocations per run"
        );
    }
    std::env::set_var("URB_GIT_REV", "test-rev-0001");
    assert_eq!(a.to_json(), b.to_json(), "byte-identical files");
    std::env::remove_var("URB_GIT_REV");
    let mut other = tiny();
    other.seed = 6;
    assert_ne!(
        collect(&other).points[0].trace_fingerprint,
        a.points[0].trace_fingerprint
    );
}
