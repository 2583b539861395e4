//! Neurosys under the four instrumentation levels — a miniature of the
//! paper's Figure 8(c) experiment, showing where the overhead comes from.
//!
//! Neurosys performs five allgathers and one gather per time step. In
//! the paper every one of those is preceded by a control collective,
//! which dominates at small problem sizes (up to 160% at 16×16) and fades
//! as computation grows. Here the control word rides on the allgathers'
//! own frames and only the gather keeps a preceding exchange, so the
//! piggyback column stays close to the unmodified one.
//!
//! ```sh
//! cargo run --release --example neurosys_activity
//! ```

use c3_apps::Neurosys;
use c3_core::{run_job, C3Config, CheckpointTrigger, InstrumentationLevel};

fn main() {
    let nprocs = 4;
    let iters = 120;

    println!(
        "neurosys: {nprocs} ranks, {iters} RK4 steps, four instrumentation \
         levels\n"
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "network", "unmodified", "+piggyback", "+protocol", "full ckpt"
    );

    for m in [8usize, 16, 24] {
        let app = Neurosys::new(m, iters);
        let mut row = format!("{:>5}x{:<2}", m, m);
        let mut baseline = None;
        for level in [
            InstrumentationLevel::None,
            InstrumentationLevel::Piggyback,
            InstrumentationLevel::ProtocolOnly,
            InstrumentationLevel::Full,
        ] {
            let cfg = C3Config {
                level,
                trigger: CheckpointTrigger::EveryMillis(250),
                ..C3Config::default()
            };
            let report = run_job(nprocs, &cfg, None, &app).expect("run");
            let secs = report.elapsed.as_secs_f64();
            let text = match baseline {
                None => {
                    baseline = Some(secs);
                    format!("{secs:>10.3}s")
                }
                Some(base) => {
                    format!(
                        "{secs:>7.3}s {:>+3.0}%",
                        (secs / base - 1.0) * 100.0
                    )
                }
            };
            row.push_str(&format!(" {text:>12}"));
        }
        println!("{row}");
    }
    println!(
        "\nwhat overhead there is sits in the piggyback column at small sizes:\n\
         the control word on Neurosys's 5 allgathers per step (8 bytes on\n\
         frames sent anyway) and the exchange in front of its gather. The\n\
         paper's separate control collective per call cost 160% here (Figure 8c)."
    );
}
