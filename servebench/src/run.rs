//! The closed-loop client: one thread, one `RouterClient`, each request
//! sent after the previous reply, each reply checked against the oracle.

use crate::inputs::{Edit, Inputs, Op, Step, QUERIES};
use crate::stack::Served;
use crate::stats::{block_median, ms};
use cxml::cxserve::{ServeError, WireError};
use cxml::cxstore::DocId;
use cxml::goddag::NodeId;
use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
pub enum Kind {
    Edit,
    Query,
    Fanout,
}

impl Kind {
    pub fn of(op: &Op) -> Kind {
        match op {
            Op::Edit { .. } => Kind::Edit,
            Op::Query { .. } => Kind::Query,
            Op::Fanout { .. } => Kind::Fanout,
        }
    }
}

/// What the client carries between requests: each document's last
/// acknowledged epoch (the next guard) and the element its last insert
/// created.
pub struct Cursor {
    pub epochs: Vec<u64>,
    pub inserted: Vec<Option<NodeId>>,
}

impl Cursor {
    pub fn new(inputs: &Inputs) -> Cursor {
        Cursor { epochs: inputs.script.epochs.clone(), inserted: vec![None; inputs.docs.len()] }
    }
}

/// Latencies and failures of one pass over a range of the script.
#[derive(Default)]
pub struct Pass {
    /// Latencies by kind.
    latency_ms: [Vec<f64>; 3],
    /// Router-call latency of each step, in order.
    step_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Server refusals seen by the client (`busy`, `deadline`).
    pub refused: u64,
    pub errors: Vec<String>,
    /// Time spent inside router calls.
    pub in_calls: Duration,
    /// The whole pass: router calls, checks and whatever `after` does.
    pub wall: Duration,
}

impl Pass {
    pub fn samples(&self, kind: Kind) -> &[f64] {
        &self.latency_ms[kind as usize]
    }

    /// Closed-loop throughput: steps per second of client wait, the median
    /// over blocks of the run.
    pub fn ops_per_s(&self) -> f64 {
        block_median(&self.step_ms, |b| 1e3 * b.len() as f64 / b.iter().sum::<f64>())
    }

    /// Append a later pass over the next steps.
    pub fn absorb(&mut self, later: Pass) {
        for (mine, theirs) in self.latency_ms.iter_mut().zip(later.latency_ms) {
            mine.extend(theirs);
        }
        self.step_ms.extend(later.step_ms);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.refused += later.refused;
        self.errors.extend(later.errors);
        self.in_calls += later.in_calls;
        self.wall += later.wall;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// Run `steps` of the script in order. `after` sees each step with its
/// router latency, after the reply was checked (the traced run replays it
/// down the layer ladder there).
pub fn run(
    served: &Served,
    inputs: &Inputs,
    cursor: &mut Cursor,
    steps: Range<usize>,
    mut after: impl FnMut(&Step, Duration),
) -> Pass {
    let index: HashMap<DocId, usize> =
        served.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let mut pass = Pass::default();
    let start = Instant::now();
    for step in &inputs.script.steps[steps] {
        pass.attempted += 1;
        let (took, verdict) = match &step.op {
            Op::Edit { doc, edit } => {
                let op = edit.to_op(cursor.inserted[*doc]);
                let guard = cursor.epochs[*doc];
                let t = Instant::now();
                let r = served.router.edit_guarded(served.ids[*doc], guard, op);
                let took = t.elapsed();
                let verdict = r.map_err(|e| refusal(&mut pass.refused, e)).and_then(|out| {
                    cursor.epochs[*doc] = out.epoch;
                    if matches!(edit, Edit::Insert { .. }) {
                        cursor.inserted[*doc] = out.node;
                        out.node.ok_or("insert created no element")?;
                    }
                    if out.epoch != guard + 1 {
                        return Err(format!("epoch {guard} -> {}", out.epoch));
                    }
                    Ok(())
                });
                (took, verdict.map_err(|e| format!("edit on doc {doc}: {e}")))
            }
            Op::Query { doc, q } => {
                let t = Instant::now();
                let r = served.router.query(served.ids[*doc], QUERIES[*q].1);
                let took = t.elapsed();
                let verdict = match r {
                    Ok(nodes) if nodes == step.expect[0] => Ok(()),
                    Ok(nodes) => Err(format!(
                        "{} on doc {doc}: {} nodes, expected {}",
                        QUERIES[*q].0,
                        nodes.len(),
                        step.expect[0].len()
                    )),
                    Err(e) => Err(refusal(&mut pass.refused, e)),
                };
                (took, verdict)
            }
            Op::Fanout { q } => {
                let t = Instant::now();
                let r = served.router.query_all(QUERIES[*q].1);
                let took = t.elapsed();
                let verdict = match r {
                    Ok(hits) => {
                        let mut per_doc = vec![None; served.ids.len()];
                        for (id, nodes) in hits {
                            if let Some(&i) = index.get(&id) {
                                per_doc[i] = Some(nodes);
                            }
                        }
                        let ok = per_doc
                            .iter()
                            .zip(&step.expect)
                            .all(|(got, want)| got.as_ref() == Some(want));
                        if ok {
                            Ok(())
                        } else {
                            Err(format!("fan-out {} differs", QUERIES[*q].0))
                        }
                    }
                    Err(e) => Err(refusal(&mut pass.refused, e)),
                };
                (took, verdict)
            }
        };
        pass.latency_ms[Kind::of(&step.op) as usize].push(ms(took));
        pass.step_ms.push(ms(took));
        pass.in_calls += took;
        if let Err(e) = verdict {
            pass.fail(e);
        }
        after(step, took);
    }
    pass.wall = start.elapsed();
    pass
}

fn refusal(refused: &mut u64, e: ServeError) -> String {
    if matches!(e, ServeError::Remote(WireError::Busy | WireError::Deadline { .. })) {
        *refused += 1;
    }
    e.to_string()
}

/// The first index at or after `target` that does not split an edit from
/// its inverse.
pub fn pair_boundary(steps: &[Step], target: usize) -> usize {
    (target..steps.len())
        .find(|&i| {
            i == 0
                || !matches!(
                    &steps[i - 1].op,
                    Op::Edit {
                        edit: Edit::Insert { .. } | Edit::SetAttr { .. } | Edit::InsertText { .. },
                        ..
                    }
                )
        })
        .unwrap_or(steps.len())
}

/// `[0, cut)` in `n` consecutive ranges that each start and end between
/// pairs.
pub fn blocks(steps: &[Step], cut: usize, n: usize) -> Vec<Range<usize>> {
    let mut bounds: Vec<usize> = (0..n).map(|i| pair_boundary(steps, cut * i / n)).collect();
    bounds.push(cut);
    bounds.dedup();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}
