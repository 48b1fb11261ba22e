//! A complete crowd campaign over HTTP, in one process: start the
//! `rempd` server on a free port, create a campaign through the wire
//! protocol, drive it with named simulated workers, and verify the
//! outcome is bit-identical to the same campaign run directly through
//! `RempSession` — no server anywhere.
//!
//! ```text
//! cargo run --example http_campaign
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use remp::core::{evaluate_matches, RempConfig};
use remp::datasets::{generate, tiny};
use remp::kb::EntityId;
use remp::serve::{
    drive, outcome_matches, reference_outcome, CrowdParams, CrowdPolicy, ServeClient, Server,
    ServerConfig, WireCrowd,
};
use remp_json::Json;

fn main() {
    // The client side: the TINY world's gold alignment is the hidden
    // truth our simulated workers answer from. The server regenerates
    // the same deterministic preset on its side.
    let dataset = generate(&tiny(1.0));
    let params = CrowdParams { per_question: 3, ..CrowdParams::paper_default(42) };

    // Boot rempd on a free port, on a background thread.
    let config = ServerConfig { addr: "127.0.0.1:0".into(), ..ServerConfig::default() };
    let server = Server::bind(&config).expect("bind");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let serving = std::thread::spawn(move || server.run(&stop_flag).expect("server"));
    println!("rempd listening on http://{addr}");

    // Create the campaign over the wire.
    let client = ServeClient::new(addr.to_string());
    let created = client
        .post(
            "/campaigns",
            &Json::Obj(vec![
                ("name".into(), Json::from("http-campaign-example")),
                ("preset".into(), Json::from("TINY")),
                ("per_question".into(), Json::from(params.per_question)),
            ]),
        )
        .expect("create campaign");
    let id: String = created.field("id").expect("campaign id");
    println!("created campaign {id}");

    // Drive it: each question is leased to three distinct named workers,
    // their answers aggregate server-side under online quality
    // estimation, and Eq. 17 + Eq. 11 run as each set completes.
    let mut crowd = WireCrowd::new(&params);
    let truth = |a: EntityId, b: EntityId| dataset.is_match(a, b);
    let driven = drive(&client, &id, &mut crowd, &truth).expect("drive to completion");
    let outcome = client.get(&format!("/campaigns/{id}/outcome")).expect("outcome");
    println!("campaign complete: {} questions answered over HTTP", driven.len());

    // Score it against the gold standard…
    let pairs: Vec<(u32, u32)> = outcome.field("matches").expect("matches");
    let matches: Vec<(EntityId, EntityId)> =
        pairs.into_iter().map(|(a, b)| (EntityId(a), EntityId(b))).collect();
    let eval = evaluate_matches(matches.iter().copied(), &dataset.gold);
    println!(
        "precision {:.1}%  recall {:.1}%  F1 {:.1}%",
        100.0 * eval.precision,
        100.0 * eval.recall,
        100.0 * eval.f1
    );

    // …and prove the network changed nothing: the same seeded worker
    // stream through a raw RempSession gives the same bits.
    let policy = CrowdPolicy { per_question: params.per_question, ..CrowdPolicy::default() };
    let (reference, log) = reference_outcome(
        &dataset.kb1,
        &dataset.kb2,
        &RempConfig::default(),
        &policy,
        &params,
        &truth,
    )
    .expect("reference run");
    outcome_matches(&outcome, &reference, &log).expect("bit-identical to the in-process run");
    println!("verified: the HTTP campaign is bit-identical to the in-process session run");

    stop.store(true, Ordering::SeqCst);
    serving.join().expect("server thread");
}
