//! The keep-table follows installs and uninstalls: scoped and global
//! recorders count their declared kinds in when installed and out when
//! removed or replaced, so the table always answers for exactly the
//! recorders that are live.
//!
//! This binary holds one test on purpose: the table is process-wide, and
//! a concurrent test installing recorders would move it.

use std::sync::Arc;

use chc_obs::{
    self as obs, AuditRecorder, EventLevel, FanoutRecorder, FlightRecorder, Kind, ProfileRecorder,
    Recorder, StatsRecorder,
};

/// The kinds some live recorder keeps, in [`Kind::ALL`] order.
fn table() -> Vec<Kind> {
    Kind::ALL.into_iter().filter(|&k| obs::keeps(k)).collect()
}

/// The kinds `r` keeps, in [`Kind::ALL`] order.
fn kinds(r: &dyn Recorder) -> Vec<Kind> {
    Kind::ALL.into_iter().filter(|&k| r.keeps(k)).collect()
}

#[test]
fn installs_and_uninstalls_keep_the_table_exact() {
    assert_eq!(table(), [], "nothing installed");

    let flight: Arc<dyn Recorder> = Arc::new(FlightRecorder::new());
    let audit: Arc<dyn Recorder> =
        Arc::new(AuditRecorder::with_capacity_and_level(4, EventLevel::Info));
    let stats: Arc<dyn Recorder> = Arc::new(StatsRecorder::new());
    let profile: Arc<dyn Recorder> = Arc::new(ProfileRecorder::new());
    assert_eq!(kinds(&*flight), [Kind::Counter, Kind::Span]);

    // Scoped recorders nest; each guard drop counts its recorder out.
    {
        let _outer = obs::scoped(flight.clone());
        assert_eq!(table(), kinds(&*flight));
        {
            let _inner = obs::scoped(audit.clone());
            let mut both = kinds(&*flight);
            both.extend(kinds(&*audit));
            assert_eq!(table(), both);
        }
        assert_eq!(table(), kinds(&*flight), "inner scope dropped");
    }
    assert_eq!(table(), [], "outer scope dropped");

    // A global install counts in; replacing it counts the old one out.
    obs::set_global(stats.clone());
    assert_eq!(table(), kinds(&*stats));
    obs::set_global(profile.clone());
    assert_eq!(table(), kinds(&*profile), "replaced global counted out");
    {
        let _scope = obs::scoped(flight.clone());
        let union = kinds(&FanoutRecorder::new(vec![profile.clone(), flight.clone()]));
        assert_eq!(table(), union, "global and scoped together");
    }
    assert_eq!(table(), kinds(&*profile));
    obs::clear_global();
    assert_eq!(table(), [], "global cleared");
    obs::clear_global();
    assert_eq!(table(), [], "clearing twice is a no-op");

    // A fanout counts in and out as one recorder keeping the union.
    let fan: Arc<dyn Recorder> = Arc::new(FanoutRecorder::new(vec![flight, audit]));
    obs::set_global(fan.clone());
    assert_eq!(table(), kinds(&*fan));
    obs::clear_global();
    assert_eq!(table(), []);
}
