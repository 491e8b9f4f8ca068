//! A crashed campaign test is reported under its own draft's name.
//!
//! The campaign moves each draft into the worker that checks it, so a
//! task that panics takes its draft down with it; the report names the
//! crasher by regenerating the draft from `(seed, index)`. This runs in
//! its own process because the fault registry is process-global.

use harness::campaign::{run_campaign, CampaignConfig};
use harness::faults::{self, FaultAction, PlannedFault};

#[test]
fn a_crashed_draft_is_reported_under_its_name() {
    let mut cfg = CampaignConfig::new(4242, 8);
    cfg.jobs = 1; // deterministic fault-point arrival order
    cfg.chunk = 4;
    cfg.checkpoint_path =
        std::env::temp_dir().join(format!("crash-name-{}.json", std::process::id()));
    cfg.store_path = None;

    faults::install_plan(vec![PlannedFault {
        point: "harness.test".to_owned(),
        arrival: 5,
        action: FaultAction::Panic,
    }]);
    let report = run_campaign(&cfg).unwrap();
    faults::clear();
    let _ = std::fs::remove_file(&cfg.checkpoint_path);

    assert_eq!(
        report.state.quarantine.iter().copied().collect::<Vec<_>>(),
        vec![5]
    );
    let crashes: Vec<&String> = report
        .state
        .failures
        .iter()
        .filter(|(_, diagnosis)| diagnosis.starts_with("crashed:"))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(crashes, vec![&litmus::gen::campaign_draft(4242, 5).name]);
}
