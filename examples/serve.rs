//! Fleet-as-a-service walkthrough: sessions attach, degrade, detach and get
//! shed while the fleet keeps stepping.
//!
//! Where `fleet.rs` runs a fixed stream set to completion (the batch shape),
//! this example drives the long-running [`FleetService`]: a deterministic
//! request/response protocol over the same fleet loop. Sessions arrive with an
//! accuracy goal and a deadline class; SLO-aware admission either admits
//! them, offers a degraded goal back, rejects them, or — for a
//! higher-priority arrival — sheds a degraded lower-priority session to
//! make room (and only when the eviction actually lets the arrival in).
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! [`FleetService`]: shift_core::FleetService

use shift_core::{
    characterize, AttachRequest, DeadlineClass, FleetBuilder, ServicePolicy, SessionEvent,
    SessionId, SessionRequest, ShiftConfig, StreamAgent,
};
use shift_models::{ModelZoo, ResponseModel};
use shift_soc::{AcceleratorId, ExecutionEngine, Platform};
use shift_video::{CharacterizationDataset, Scenario};

fn describe(tick: u64, event: &SessionEvent) -> String {
    match event {
        SessionEvent::Admitted {
            session,
            requested_goal,
            admitted_goal,
        } if admitted_goal < requested_goal => format!(
            "t={tick:>3}  {session} admitted at a DEGRADED goal \
             (asked {requested_goal:.2}, offered {admitted_goal:.2})"
        ),
        SessionEvent::Admitted {
            session,
            admitted_goal,
            ..
        } => format!("t={tick:>3}  {session} admitted at goal {admitted_goal:.2}"),
        SessionEvent::Rejected {
            session,
            name,
            reason,
        } => format!(
            "t={tick:>3}  {session} ({name}) rejected: {}",
            reason.label()
        ),
        SessionEvent::Detached { session, frames } => {
            format!("t={tick:>3}  {session} detached after {frames} frames")
        }
        SessionEvent::Shed { session, name } => {
            format!("t={tick:>3}  {session} ({name}) SHED to admit a higher-priority arrival")
        }
        SessionEvent::Status {
            session,
            frames,
            attached,
            ..
        } => format!("t={tick:>3}  {session} status: {frames} frames, attached={attached}"),
        SessionEvent::UnknownSession { session } => {
            format!("t={tick:>3}  {session} is unknown")
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. One shared platform, one shared characterization — exactly as in
    //    the batch fleet walkthrough.
    let engine = ExecutionEngine::new(
        Platform::xavier_nx_with_oak(),
        ModelZoo::standard(),
        ResponseModel::new(7),
    );
    println!("characterizing the model zoo...");
    let characterization = characterize(&engine, &CharacterizationDataset::generate(400, 7));

    // 2. Capacity-plan the SLO budgets: pin the sessions to the GPU. The
    //    standard budget is 1.5x the solo per-frame latency (the GPU serves
    //    one standard session comfortably); the interactive budget is half
    //    the solo latency — tighter than this platform can serve at all.
    let gpu_only =
        ShiftConfig::paper_defaults().with_allowed_accelerators(vec![AcceleratorId::Gpu]);
    let solo_latency = {
        let agent = StreamAgent::new(&characterization, gpu_only.clone().with_accuracy_goal(0.25))?;
        let pair = agent.current_pair();
        characterization
            .traits_of(pair.model)
            .and_then(|t| t.stats_on(pair.accelerator))
            .map(|s| s.mean_latency_s)
            .expect("the scheduled pair is characterized")
    };
    println!("solo GPU latency: {:.1} ms/frame", solo_latency * 1e3);
    let policy = ServicePolicy::defaults().with_budgets(solo_latency * 0.5, solo_latency * 1.5);
    let mut service = FleetBuilder::new(engine, &characterization).build_service(policy)?;

    // 3. A day in the service's life. `submit` applies a request now;
    //    `schedule` enqueues it on the fleet's tick clock (ticks = frames admitted).
    let attach = |name: &str, scenario: Scenario, goal: f64, class: DeadlineClass| {
        SessionRequest::Attach(AttachRequest::new(
            name,
            scenario,
            gpu_only.clone().with_accuracy_goal(goal),
            class,
        ))
    };
    // A batch job asks for more accuracy than any model delivers: admission
    // walks the degrade ladder and offers a lower goal back.
    service.submit(attach(
        "archival",
        Scenario::scenario_5().with_num_frames(60),
        0.95,
        DeadlineClass::Batch,
    ));
    // A standard session saturates the budget; shedding evicts the degraded
    // batch job to let the higher-priority arrival in.
    service.submit(attach(
        "patrol",
        Scenario::scenario_3().with_num_frames(45),
        0.25,
        DeadlineClass::Standard,
    ));
    // An interactive arrival mid-run: its budget cannot fit even a solo
    // run, and with no degraded victim left to shed it is turned away.
    service.schedule(
        20,
        attach(
            "operator",
            Scenario::scenario_2().with_num_frames(30),
            0.25,
            DeadlineClass::Interactive,
        ),
    );
    // The patrol session hangs up before its video ends.
    service.schedule(35, SessionRequest::Detach(SessionId::from_value(2)));

    // 4. Run until every attached session drains, then admit one more onto
    //    the now-idle fleet and drain again.
    service.run_until_idle()?;
    service.submit(attach(
        "night-watch",
        Scenario::scenario_1().with_num_frames(25),
        0.30,
        DeadlineClass::Standard,
    ));
    let outcomes = service.run_until_idle()?;
    println!(
        "\nfinal drain processed {} frames; event log:",
        outcomes.len()
    );
    for (tick, event) in service.drain_events() {
        println!("  {}", describe(tick, &event));
    }

    println!("\nfinal session records:");
    for record in service.sessions() {
        let outcome = if record.rejected.is_some() {
            "rejected"
        } else if record.shed {
            "shed"
        } else if record.detached_tick.is_some() {
            "detached"
        } else {
            "drained"
        };
        println!(
            "  {} {:<11} {:<9} goal {:.2} -> {:.2}, {} frames",
            record.session,
            record.name,
            outcome,
            record.requested_goal,
            record.admitted_goal,
            record.frames,
        );
    }
    Ok(())
}
