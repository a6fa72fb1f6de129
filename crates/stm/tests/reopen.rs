//! Re-opening a variable the transaction already wrote.
//!
//! The first `update` of a variable copies its committed value: that copy
//! is object-granularity logging, the cost the paper's §5 measures. Every
//! later `update` of the same variable in the same transaction must
//! mutate the buffered copy in place, or a monolithic index updated once
//! per part copies the whole index once per part. The one exception is a
//! buffered value a `read` has handed out: the handle must keep the value
//! it saw, so the next `update` copies again.
//!
//! Each test counts the clones of its own variable's value through a
//! counter that value carries, so tests running in parallel never share
//! a count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use stmbench7_stm::{AstmRuntime, NorecRuntime, StmRuntime, Tl2Runtime};

/// A value that counts how often it is cloned.
struct Counted {
    clones: Arc<AtomicUsize>,
    value: u64,
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::Relaxed);
        Counted {
            clones: Arc::clone(&self.clones),
            value: self.value,
        }
    }
}

fn fresh<RT: StmRuntime>(rt: &RT) -> (RT::Var<Counted>, Arc<AtomicUsize>) {
    let clones = Arc::new(AtomicUsize::new(0));
    let var = rt.new_var(Counted {
        clones: Arc::clone(&clones),
        value: 0,
    });
    (var, clones)
}

/// Three updates of one variable in one transaction copy its value once.
fn three_updates_clone_once<RT: StmRuntime>(rt: RT) {
    let (var, clones) = fresh(&rt);
    rt.atomic(|tx| {
        for _ in 0..3 {
            RT::update(tx, &var, |c| c.value += 1)?;
        }
        Ok(())
    });
    assert_eq!(rt.read_quiesced(&var).value, 3);
    assert_eq!(clones.load(Ordering::Relaxed), 1, "clones of the value");
}

/// A handle read between two updates keeps the value it saw.
fn read_handle_survives_reopen<RT: StmRuntime>(rt: RT) {
    let (var, _) = fresh(&rt);
    let seen = rt.atomic(|tx| {
        RT::update(tx, &var, |c| c.value += 1)?;
        let handle = RT::read(tx, &var)?;
        RT::update(tx, &var, |c| c.value += 10)?;
        RT::update(tx, &var, |c| c.value += 100)?;
        assert_eq!(RT::read(tx, &var)?.value, 111, "read-your-own-write");
        Ok(handle.value)
    });
    assert_eq!(seen, 1);
    assert_eq!(rt.read_quiesced(&var).value, 111);
}

#[test]
fn astm_three_updates_clone_once() {
    three_updates_clone_once(AstmRuntime::default());
}

#[test]
fn tl2_three_updates_clone_once() {
    three_updates_clone_once(Tl2Runtime::default());
}

#[test]
fn norec_three_updates_clone_once() {
    three_updates_clone_once(NorecRuntime::new());
}

#[test]
fn astm_read_handle_survives_reopen() {
    read_handle_survives_reopen(AstmRuntime::default());
}

#[test]
fn tl2_read_handle_survives_reopen() {
    read_handle_survives_reopen(Tl2Runtime::default());
}

#[test]
fn norec_read_handle_survives_reopen() {
    read_handle_survives_reopen(NorecRuntime::new());
}
