//! Property tests for the three STM runtimes.
//!
//! Single-threaded: a random program of reads/updates over a small heap
//! must behave exactly like a `Vec<u64>` model, for every runtime and
//! configuration. Multi-threaded: randomized transfer workloads must
//! conserve the total (atomicity) and never expose a torn pair
//! (opacity/isolation).

use std::sync::Arc;

use proptest::prelude::*;

use stmbench7_stm::astm::AstmConfig;
use stmbench7_stm::tl2::Tl2Config;
use stmbench7_stm::{AstmRuntime, ContentionManager, NorecRuntime, StmRuntime, Tl2Runtime};

#[derive(Clone, Debug)]
enum Step {
    Read(usize),
    Add(usize, u64),
    /// Read a, add its value to b — creates read-write dependencies.
    Copy(usize, usize),
}

fn arb_step(vars: usize) -> impl Strategy<Value = Step> {
    prop_oneof![
        (0..vars).prop_map(Step::Read),
        ((0..vars), 1u64..100).prop_map(|(i, v)| Step::Add(i, v)),
        ((0..vars), (0..vars)).prop_map(|(a, b)| Step::Copy(a, b)),
    ]
}

/// Runs a program transactionally (one tx per chunk) and against a plain
/// model; the observable reads must match exactly.
fn check_against_model<RT: StmRuntime>(rt: &RT, program: &[Vec<Step>]) {
    const VARS: usize = 8;
    let vars: Vec<RT::Var<u64>> = (0..VARS as u64).map(|i| rt.new_var(i)).collect();
    let mut model: Vec<u64> = (0..VARS as u64).collect();

    for tx_steps in program {
        let mut model_reads = Vec::new();
        let mut model_next = model.clone();
        for step in tx_steps {
            match step {
                Step::Read(i) => model_reads.push(model_next[*i]),
                Step::Add(i, v) => model_next[*i] = model_next[*i].wrapping_add(*v),
                Step::Copy(a, b) => {
                    let v = model_next[*a];
                    model_next[*b] = model_next[*b].wrapping_add(v);
                }
            }
        }
        let stm_reads = rt.atomic(|tx| {
            let mut reads = Vec::new();
            for step in tx_steps {
                match step {
                    Step::Read(i) => reads.push(*RT::read(tx, &vars[*i])?),
                    Step::Add(i, v) => RT::update(tx, &vars[*i], |x| *x = x.wrapping_add(*v))?,
                    Step::Copy(a, b) => {
                        let v = *RT::read(tx, &vars[*a])?;
                        RT::update(tx, &vars[*b], |x| *x = x.wrapping_add(v))?;
                    }
                }
            }
            Ok(reads)
        });
        assert_eq!(stm_reads, model_reads, "reads diverged from the model");
        model = model_next;
    }
    for (i, var) in vars.iter().enumerate() {
        assert_eq!(*rt.read_quiesced(var), model[i], "final state diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn tl2_matches_model(
        program in proptest::collection::vec(
            proptest::collection::vec(arb_step(8), 1..12), 1..12),
        extension in proptest::bool::ANY,
    ) {
        let rt = Tl2Runtime::new(Tl2Config {
            timestamp_extension: extension,
            ..Tl2Config::default()
        });
        check_against_model(&rt, &program);
    }

    #[test]
    fn norec_matches_model(
        program in proptest::collection::vec(
            proptest::collection::vec(arb_step(8), 1..12), 1..12),
    ) {
        check_against_model(&NorecRuntime::new(), &program);
    }

    #[test]
    fn astm_matches_model(
        program in proptest::collection::vec(
            proptest::collection::vec(arb_step(8), 1..12), 1..12),
        incremental in proptest::bool::ANY,
    ) {
        let rt = AstmRuntime::new(AstmConfig {
            incremental_validation: incremental,
            ..AstmConfig::default()
        });
        check_against_model(&rt, &program);
    }
}

/// Concurrent conservation: random transfer matrices between accounts.
fn concurrent_conservation<RT: StmRuntime>(rt: Arc<RT>, transfers: Vec<(u8, u8, u8)>) {
    const ACCOUNTS: usize = 6;
    const INITIAL: i64 = 1_000;
    let accounts: Vec<RT::Var<i64>> = (0..ACCOUNTS).map(|_| rt.new_var(INITIAL)).collect();
    let chunks: Vec<Vec<(u8, u8, u8)>> = transfers.chunks(8).map(|c| c.to_vec()).collect();
    std::thread::scope(|s| {
        for chunk in &chunks {
            let rt = Arc::clone(&rt);
            let accounts = accounts.clone();
            s.spawn(move || {
                for (from, to, amount) in chunk {
                    let from = *from as usize % ACCOUNTS;
                    let to = *to as usize % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    let amount = i64::from(*amount);
                    rt.atomic(|tx| {
                        let available = *RT::read(tx, &accounts[from])?;
                        let moved = amount.min(available.max(0));
                        RT::update(tx, &accounts[from], |b| *b -= moved)?;
                        RT::update(tx, &accounts[to], |b| *b += moved)?;
                        Ok(())
                    });
                }
            });
        }
    });
    let total: i64 = accounts.iter().map(|a| *rt.read_quiesced(a)).sum();
    assert_eq!(
        total,
        INITIAL * ACCOUNTS as i64,
        "money created or destroyed"
    );
    for a in &accounts {
        assert!(*rt.read_quiesced(a) >= 0, "negative balance");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn tl2_conserves_under_threads(
        transfers in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 16..64),
    ) {
        concurrent_conservation(Arc::new(Tl2Runtime::default()), transfers);
    }

    #[test]
    fn norec_conserves_under_threads(
        transfers in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 16..64),
    ) {
        concurrent_conservation(Arc::new(NorecRuntime::new()), transfers);
    }

    #[test]
    fn astm_conserves_under_threads(
        transfers in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 16..64),
        cm_idx in 0usize..6,
    ) {
        let cm = ContentionManager::all()[cm_idx];
        let rt = AstmRuntime::new(AstmConfig {
            cm,
            ..AstmConfig::default()
        });
        concurrent_conservation(Arc::new(rt), transfers);
    }
}
