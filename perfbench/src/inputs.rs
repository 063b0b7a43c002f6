//! Seeded inputs and the answers the generator predicts for them.
//!
//! Everything here is a pure function of the seed: the program under test only
//! ever sees the facts, query keys and transactions generated below.

use std::collections::VecDeque;

use factorlog_datalog::ast::{Const, Query};
use factorlog_datalog::parser::parse_query;
use factorlog_datalog::storage::Database;
use factorlog_engine::wal::{WalOp, WalRecord};
use factorlog_workloads::graphs::random_graph;

/// SplitMix64: a tiny seeded generator, so the benchmark's own choices depend on
/// `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The served edge set: `chains` disjoint chains of `len` edges each, with node
/// ids a seeded permutation of `0..chains * (len + 1)`. Chain `k` also owns a
/// spare node, `spare(k)`, which the write stream hangs off the chain's tail.
pub struct Forest {
    pub chains: usize,
    pub len: usize,
    ids: Vec<i64>,
    /// `(chain, position)` of each node id.
    place: Vec<(usize, usize)>,
}

impl Forest {
    pub fn new(chains: usize, len: usize, seed: u64) -> Forest {
        let nodes = chains * (len + 1);
        let mut ids: Vec<i64> = (0..nodes as i64).collect();
        Rng::new(seed).shuffle(&mut ids);
        let mut place = vec![(0, 0); nodes];
        for (slot, &id) in ids.iter().enumerate() {
            place[id as usize] = (slot / (len + 1), slot % (len + 1));
        }
        Forest {
            chains,
            len,
            ids,
            place,
        }
    }

    pub fn nodes(&self) -> usize {
        self.ids.len()
    }

    pub fn node(&self, chain: usize, position: usize) -> i64 {
        self.ids[chain * (self.len + 1) + position]
    }

    pub fn head(&self, chain: usize) -> i64 {
        self.node(chain, 0)
    }

    pub fn tail(&self, chain: usize) -> i64 {
        self.node(chain, self.len)
    }

    pub fn spare(&self, chain: usize) -> i64 {
        (self.nodes() + chain) as i64
    }

    /// `(chain, position)` of a chain node.
    pub fn place(&self, node: i64) -> (usize, usize) {
        self.place[node as usize]
    }

    /// Rows of the least model: the edges plus the closure of every chain.
    pub fn model_rows(&self) -> usize {
        self.chains * (self.len + self.len * (self.len + 1) / 2)
    }

    pub fn edges(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        (0..self.chains)
            .flat_map(move |k| (0..self.len).map(move |i| (self.node(k, i), self.node(k, i + 1))))
    }

    /// The right-linear TC program plus every edge, as one Datalog source.
    pub fn source(&self) -> String {
        let mut text = String::from(factorlog_workloads::programs::RIGHT_LINEAR_TC);
        text.push('\n');
        for (a, b) in self.edges() {
            text.push_str(&format!("e({a}, {b}).\n"));
        }
        text
    }

    pub fn database(&self) -> Database {
        let mut db = Database::new();
        for (a, b) in self.edges() {
            db.add_fact("e", &[Const::Int(a), Const::Int(b)]);
        }
        db
    }

    /// The predicted answer to `t(node, Y)`, sorted, with or without the chain's
    /// spare edge.
    pub fn answer(&self, node: i64, spare_edge: bool) -> Vec<i64> {
        let (chain, position) = self.place[node as usize];
        let mut rows: Vec<i64> = (position + 1..=self.len)
            .map(|i| self.node(chain, i))
            .collect();
        if spare_edge {
            rows.push(self.spare(chain));
        }
        rows.sort_unstable();
        rows
    }

    /// Which spare edges a read saw, judged against the two possible answers:
    /// `Some(present)` when the rows match one of them, `None` otherwise.
    pub fn classify(&self, node: i64, rows: &[i64]) -> Option<bool> {
        if rows == self.answer(node, false).as_slice() {
            Some(false)
        } else if rows == self.answer(node, true).as_slice() {
            Some(true)
        } else {
            None
        }
    }
}

/// One logged operation of the write stream.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub chain: usize,
    pub assert: bool,
}

/// The write stream: transaction `j` asserts the spare edge of chain
/// `order[j % chains]` and retracts the one asserted `HELD` transactions
/// earlier, so the model keeps its size and every commit runs both insert and
/// retract maintenance.
pub struct TxnStream {
    order: Vec<usize>,
}

/// Spare edges outstanding at once (must be below the chain count).
pub const HELD: usize = 4;

impl TxnStream {
    pub fn new(chains: usize, seed: u64) -> TxnStream {
        assert!(
            chains > HELD,
            "the write stream needs more than {HELD} chains"
        );
        let mut order: Vec<usize> = (0..chains).collect();
        Rng::new(seed ^ 0x7478_6E73).shuffle(&mut order);
        TxnStream { order }
    }

    pub fn ops(&self, j: usize) -> Vec<Op> {
        let mut ops = Vec::with_capacity(2);
        if j >= HELD {
            ops.push(Op {
                chain: self.order[(j - HELD) % self.order.len()],
                assert: false,
            });
        }
        ops.push(Op {
            chain: self.order[j % self.order.len()],
            assert: true,
        });
        ops
    }

    /// The `TXN` request body of transaction `j`.
    pub fn spec(&self, forest: &Forest, j: usize) -> String {
        let parts: Vec<String> = self
            .ops(j)
            .iter()
            .map(|op| {
                let sign = if op.assert { '+' } else { '-' };
                format!(
                    "{sign}e({}, {})",
                    forest.tail(op.chain),
                    forest.spare(op.chain)
                )
            })
            .collect();
        parts.join("; ")
    }

    /// Transaction `j` as the write-ahead log records it.
    pub fn wal_record(&self, forest: &Forest, j: usize) -> WalRecord {
        let ops = self
            .ops(j)
            .iter()
            .map(|op| {
                let kind = if op.assert {
                    WalOp::Assert
                } else {
                    WalOp::Retract
                };
                let tuple = vec![
                    Const::Int(forest.tail(op.chain)),
                    Const::Int(forest.spare(op.chain)),
                ];
                (kind, "e".into(), tuple)
            })
            .collect();
        WalRecord::Txn {
            seq: j as u64 + 1,
            ops,
        }
    }
}

/// The demand workload's graph, with a BFS reachability oracle.
pub struct Graph {
    pub nodes: usize,
    pub db: Database,
    adj: Vec<Vec<usize>>,
}

impl Graph {
    pub fn new(nodes: usize, edges: usize, seed: u64) -> Graph {
        let db = random_graph(nodes, edges, seed);
        let mut adj = vec![Vec::new(); nodes];
        if let Some(rel) = db.relation("e".into()) {
            for row in rel.iter() {
                let (a, b) = (row[0].as_int(), row[1].as_int());
                adj[a.expect("int node") as usize].push(b.expect("int node") as usize);
            }
        }
        Graph { nodes, db, adj }
    }

    /// The rules of the paper's three-rule TC plus every edge, as one source.
    pub fn source(&self) -> String {
        let mut text = String::from(factorlog_workloads::programs::THREE_RULE_TC);
        text.push('\n');
        for (a, succ) in self.adj.iter().enumerate() {
            for b in succ {
                text.push_str(&format!("e({a}, {b}).\n"));
            }
        }
        text
    }

    /// Nodes reachable from `from` by a path of at least one edge, sorted: the
    /// answer to `t(from, Y)`.
    pub fn reach(&self, from: usize) -> Vec<i64> {
        let mut seen = vec![false; self.nodes];
        let mut queue: VecDeque<usize> = self.adj[from].iter().copied().collect();
        for &n in &self.adj[from] {
            seen[n] = true;
        }
        while let Some(n) = queue.pop_front() {
            for &m in &self.adj[n] {
                if !seen[m] {
                    seen[m] = true;
                    queue.push_back(m);
                }
            }
        }
        (0..self.nodes)
            .filter(|&n| seen[n])
            .map(|n| n as i64)
            .collect()
    }
}

/// The bound query `t(c, Y)`.
pub fn tc_query(c: i64) -> Query {
    parse_query(&format!("t({c}, Y)")).expect("generated query parses")
}

/// The single integer column of `t(c, Y)` answers.
pub fn ints(rows: &[Vec<Const>]) -> Vec<i64> {
    rows.iter().filter_map(|r| r[0].as_int()).collect()
}

/// CRC-32 of a database's facts, rendered and sorted, so two stores holding
/// the same facts agree whatever their insertion order.
pub fn facts_checksum(db: &Database) -> u32 {
    let mut lines: Vec<String> = Vec::new();
    for predicate in db.predicates() {
        if let Some(rel) = db.relation(predicate) {
            for row in rel.iter() {
                let args: Vec<String> = row.iter().map(Const::to_string).collect();
                lines.push(format!("{predicate}({})", args.join(", ")));
            }
        }
    }
    lines.sort();
    factorlog_engine::wal::crc32(lines.join("\n").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forest_answers_follow_the_chain() {
        let forest = Forest::new(5, 3, 7);
        let head = forest.head(2);
        assert_eq!(forest.answer(head, false).len(), 3);
        assert_eq!(forest.answer(forest.tail(2), true), vec![forest.spare(2)]);
        assert_eq!(forest.place(head), (2, 0));
        assert_eq!(forest.model_rows(), 5 * (3 + 6));
    }

    #[test]
    fn txn_stream_keeps_at_most_held_spare_edges() {
        let stream = TxnStream::new(6, 1);
        let mut present = [false; 6];
        for j in 0..30 {
            for op in stream.ops(j) {
                assert_ne!(present[op.chain], op.assert, "txn {j} repeats a state");
                present[op.chain] = op.assert;
            }
            assert!(present.iter().filter(|&&p| p).count() <= HELD);
        }
    }
}
