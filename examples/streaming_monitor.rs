//! Continuous data-quality monitoring of a polluted stream: a DQ
//! monitor fed the pollution run's output in event-time order, reporting
//! quality per window online — and localizing the moment the software
//! update broke the device.
//!
//! Run with `cargo run --example streaming_monitor`.

use icewafl::dq::monitor::DqMonitorOperator;
use icewafl::prelude::*;
use icewafl::stream::watermark::WatermarkStrategy;

fn main() {
    let schema = icewafl::data::wearable::schema();
    let data = icewafl::data::wearable::generate();

    // The §3.1.2 software-update pollution, as a plan.
    let plan = LogicalPlan::new(
        13,
        vec![vec![PolluterConfig::Composite {
            name: "software-update".into(),
            condition: ConditionConfig::TimeWindow {
                from: Some("2016-02-27 00:00:00".into()),
                to: None,
            },
            children: vec![PolluterConfig::Standard {
                name: "km-to-cm".into(),
                attributes: vec!["Distance".into()],
                error: ErrorConfig::UnitConversion { factor: 100_000.0 },
                condition: ConditionConfig::Always,
                pattern: None,
            }],
        }]],
    );
    let out = plan
        .compile(&schema)
        .expect("plan is valid")
        .execute(data)
        .expect("pollution runs");

    // Monitor: 6-hour windows, the unit-error detector from §3.1.2.
    let suite = ExpectationSuite::new("unit-check")
        .with(ExpectColumnPairValuesAToBeGreaterThanB::new("Steps", "Distance").or_equal());
    let mut monitor = DqMonitorOperator::new(schema.clone(), suite, Duration::from_hours(6));
    let mut watermarks = WatermarkStrategy::ascending(|t: &StampedTuple| t.tau).generator();
    let mut reports = Vec::new();
    for t in out.polluted {
        let wm = watermarks.on_record(&t);
        monitor.on_element(t);
        if let Some(wm) = wm {
            monitor.on_watermark(wm, &mut reports);
        }
    }
    monitor.on_end(&mut reports);

    println!("=== streaming DQ monitor: 6-hour windows ===\n");
    println!(
        "{:<22} {:>6} {:>10} {:>8}",
        "window start", "rows", "unexpected", "status"
    );
    let mut first_bad: Option<Timestamp> = None;
    for r in &reports {
        let status = if r.report.success() { "ok" } else { "ALERT" };
        if !r.report.success() && first_bad.is_none() {
            first_bad = Some(r.start);
        }
        println!(
            "{:<22} {:>6} {:>10} {:>8}",
            r.start.to_string(),
            r.report.element_count,
            r.report.total_unexpected(),
            status
        );
    }
    let onset = first_bad.expect("the update must trip the monitor");
    println!("\nfirst alerting window: {onset}");
    let update = icewafl::data::wearable::software_update_time();
    // The unit error only manifests while the wearer moves, so the
    // first alert comes with the first post-update activity — within a
    // day of the update, not before it.
    assert!(
        onset >= update && onset < update + Duration::from_hours(24),
        "the monitor flags the update as soon as movement resumes"
    );
    println!(
        "the software update was installed at {update}; the monitor alerted\n\
         with the first post-update movement — quality loss localized online."
    );

    // The pollution run's observability report: composite gate fires,
    // per-child error counts, and stream stage metrics.
    println!("\n{}", out.report.render());
}
