//! Dense conjugate gradient under failures — the paper's first benchmark
//! as a runnable scenario.
//!
//! Solves a 256×256 dense SPD system on 4 ranks, checkpointing every 200
//! protocol operations, while rank 1 is killed mid-solve and rank 3
//! during the recovery from it.
//! `ftfuzz::run_case` runs the failure-free reference and the killed
//! job, and checks that the outputs match and the recorded trace is
//! analyzer-, race- and health-clean.
//!
//! ```sh
//! cargo run --release --example dense_cg_solver
//! ```

use c3_apps::DenseCg;
use c3_core::C3Config;
use ftfuzz::{run_case, Adversary};

fn main() {
    let app = DenseCg::new(256, 60);
    let nprocs = 4;

    println!(
        "dense CG: n={} iters={} ranks={} (state ≈ {} KiB/rank)",
        app.n,
        app.iters,
        nprocs,
        app.state_bytes_per_rank(nprocs) / 1024
    );

    // Rank 1 dies at op 900; rank 3 dies 100 ops into the restarted
    // attempt (the op count restarts with every attempt).
    let adversary = Adversary::from_kills(vec![(1, 900, 1), (3, 100, 2)]);
    let name = "example_dense_cg";
    let job = C3Config::every_ops(200);
    let out = run_case(name, nprocs, &app, &job, &adversary).clean(name);

    println!(
        "faulty:   restarts={} recovered_from={:?} last committed line={:?}",
        out.restarts, out.recovered_from, out.last_committed
    );
    for (rank, st) in out.stats.iter().enumerate() {
        println!(
            "          rank {rank}: ckpts={} late_logged={} \
             early_recorded={} suppressed={} replayed={}",
            st.checkpoints,
            st.late_logged,
            st.early_recorded,
            st.suppressed_sends,
            st.late_replayed
        );
    }
    println!(
        "\nconverged identically despite {} restart(s); trace clean ✓",
        out.restarts
    );
}
