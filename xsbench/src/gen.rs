//! Workload generator and correctness model.
//!
//! `--seed` is the only source of randomness: it picks the order of the
//! sources `K` (and, for `join_sld`, the order of the facts in the
//! program text), never a size or an expected count. The engine receives
//! only the program and goal text generated here; every op carries the
//! reply the model expects, so the driver can check each one.

/// splitmix64 (Steele, Lea & Flood 2014): one u64 of state, no dependency.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WarmPoint,
    AnswerStream,
    ColdClosure,
    JoinSld,
    UpdateChurn,
}

/// Frozen sizes of one workload. `block` requests are timed as one unit;
/// a run measures whole blocks until `--seconds` have passed and at least
/// `min_blocks` are done, and reads `peak_rss_mb` after exactly
/// `min_blocks`, so that the memory metric belongs to a fixed request
/// count and does not grow when a faster engine serves more requests.
#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// cycle length, or |r| = |s| for the join
    pub n: u64,
    /// distinct sources K the goals draw from (0: the goal has none)
    pub sources: u64,
    pub block: usize,
    pub min_blocks: usize,
    /// untimed requests before the measured phase (5 % of the seed count)
    pub warmup: usize,
    /// requests replayed on each rung below `remote` in a traced run
    pub rung: usize,
    pub table_budget: Option<u64>,
    /// set-up is repeated at least this often and its median reported,
    /// because one consult of a 20 k-clause program varies more from run
    /// to run than 10 s of requests
    pub setup_reps: usize,
    /// `update_churn`: records in the log that set-up builds and recovers
    pub prebuilt_log: usize,
}

const JOIN_MOD: u64 = 1000;
/// First node id of the facts `update_churn` asserts; far from the cycle.
const FRESH_BASE: u64 = 1_000_000;

pub const WORKLOADS: [&str; 5] = [
    "warm_point",
    "answer_stream",
    "cold_closure",
    "join_sld",
    "update_churn",
];

pub fn spec(name: &str) -> Option<Spec> {
    let s = |kind, name, n, sources, block, min_blocks, warmup, rung| Spec {
        kind,
        name,
        n,
        sources,
        block,
        min_blocks,
        warmup,
        rung,
        table_budget: None,
        setup_reps: 3,
        prebuilt_log: 0,
    };
    Some(match name {
        "warm_point" => s(Kind::WarmPoint, "warm_point", 64, 64, 2000, 16, 4000, 2000),
        "answer_stream" => s(
            Kind::AnswerStream,
            "answer_stream",
            1024,
            16,
            1000,
            4,
            500,
            1000,
        ),
        "cold_closure" => Spec {
            table_budget: Some(50_000),
            ..s(
                Kind::ColdClosure,
                "cold_closure",
                1024,
                1024,
                1000,
                6,
                750,
                1000,
            )
        },
        "join_sld" => s(Kind::JoinSld, "join_sld", 10_000, 0, 1000, 4, 450, 1000),
        "update_churn" => Spec {
            prebuilt_log: 5000,
            ..s(
                Kind::UpdateChurn,
                "update_churn",
                256,
                4,
                1000,
                10,
                1500,
                2000,
            )
        },
        _ => return None,
    })
}

impl Spec {
    /// The `--check` smoke size: request counts and the prebuilt log at
    /// 1/100, program sizes unchanged so the expected counts still hold.
    pub fn smoke(&self) -> Spec {
        Spec {
            block: (self.block / 100).max(10),
            min_blocks: 1,
            warmup: (self.warmup / 100).max(10),
            rung: 20,
            setup_reps: 1,
            prebuilt_log: self.prebuilt_log / 100,
            ..self.clone()
        }
    }

    /// Facts `edge/2` holds before the first measured write.
    pub fn base_edges(&self) -> u64 {
        self.n + self.prebuilt_log as u64
    }
}

/// One request and the reply the model expects for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Count {
        goal: String,
        expect: u64,
    },
    /// `checksum` is [`answers_checksum`] over the expected bindings.
    Query {
        goal: String,
        expect: u64,
        checksum: u64,
    },
    Consult {
        text: String,
    },
}

/// One rendered solution: (variable, value) pairs, as the wire carries it.
pub type Answer = Vec<(String, String)>;

/// Order-independent checksum of rendered answers: the wrapping sum of the
/// FNV-1a hash of each answer's `name=value;` text.
pub fn answers_checksum(answers: &[Answer]) -> u64 {
    let mut text = String::new();
    answers
        .iter()
        .map(|answer| {
            text.clear();
            for (name, value) in answer {
                text.push_str(name);
                text.push('=');
                text.push_str(value);
                text.push(';');
            }
            xsb_storage::log::fnv1a(text.as_bytes())
        })
        .fold(0u64, u64::wrapping_add)
}

/// The bindings `path(K, X)` has on a cycle of `n` nodes: every node once.
pub fn cycle_answers(n: u64) -> Vec<Answer> {
    (1..=n)
        .map(|x| vec![("X".to_string(), x.to_string())])
        .collect()
}

const PATH_RULES: &str = ":- table path/2.\n:- dynamic edge/2.\n\
     path(X,Y) :- edge(X,Y).\n\
     path(X,Y) :- path(X,Z), edge(Z,Y).\n";

/// Program text of the workload. Only `join_sld` depends on the seed: it
/// lists the same facts in a seeded order.
pub fn program(spec: &Spec, seed: u64) -> String {
    use std::fmt::Write;
    let mut src = String::new();
    if spec.kind == Kind::JoinSld {
        let mut rng = SplitMix64::new(seed ^ 0x6A6F_696E);
        let mut ids: Vec<u64> = (0..spec.n).collect();
        rng.shuffle(&mut ids);
        for i in &ids {
            let _ = writeln!(src, "r({i},{}).", i % JOIN_MOD);
        }
        rng.shuffle(&mut ids);
        for j in &ids {
            let _ = writeln!(src, "s({j},{}).", 2 * j);
        }
    } else {
        src.push_str(PATH_RULES);
        for a in 1..=spec.n {
            let _ = writeln!(src, "edge({a},{}).", a % spec.n + 1);
        }
    }
    src
}

/// The `i`-th fact asserted outside the cycle: an edge between two nodes
/// nothing else mentions.
pub fn fresh_edge(i: u64) -> (u64, u64) {
    (FRESH_BASE + 2 * i, FRESH_BASE + 2 * i + 1)
}

/// The seeded request stream. Every rung of a run draws consecutive
/// segments of one stream, so `update_churn` never asserts a fact twice.
pub struct Stream {
    spec: Spec,
    rng: SplitMix64,
    /// the sources whose tables warm-up completes: all 64 of `warm_point`,
    /// the seeded 16 of `answer_stream`, none elsewhere
    warm: Vec<u64>,
    checksum: u64,
    /// `update_churn`: position in the 10-op pattern and its 4 sources
    phase: usize,
    pattern: Vec<u64>,
    /// facts generated so far, counting the prebuilt log
    writes: u64,
}

pub const CHURN_PATTERN: usize = 10;

impl Stream {
    pub fn new(spec: &Spec, seed: u64) -> Stream {
        let mut rng = SplitMix64::new(seed);
        let mut warm: Vec<u64> = (1..=spec.n).collect();
        match spec.kind {
            Kind::WarmPoint => {}
            Kind::AnswerStream => {
                rng.shuffle(&mut warm);
                warm.truncate(spec.sources as usize);
            }
            _ => warm.clear(),
        }
        Stream {
            spec: spec.clone(),
            rng,
            warm,
            checksum: answers_checksum(&cycle_answers(spec.n)),
            phase: 0,
            pattern: Vec::new(),
            writes: spec.prebuilt_log as u64,
        }
    }

    /// The sources whose tables must be complete before measuring starts.
    pub fn warm_sources(&self) -> &[u64] {
        &self.warm
    }

    fn path_count(&mut self, k: u64) -> Op {
        Op::Count {
            goal: format!("path({k}, X)"),
            expect: self.spec.n,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let n = self.spec.n;
        match self.spec.kind {
            Kind::WarmPoint | Kind::ColdClosure => {
                let k = 1 + self.rng.below(self.spec.sources);
                self.path_count(k)
            }
            Kind::AnswerStream => {
                let k = self.warm[self.rng.below(self.spec.sources) as usize];
                Op::Query {
                    goal: format!("path({k}, X)"),
                    expect: n,
                    checksum: self.checksum,
                }
            }
            Kind::JoinSld => Op::Count {
                goal: "r(X,Y), s(Y,Z)".to_string(),
                expect: n,
            },
            Kind::UpdateChurn => {
                let phase = self.phase;
                self.phase = (phase + 1) % CHURN_PATTERN;
                match phase {
                    0 => {
                        let mut pool: Vec<u64> = (1..=n).collect();
                        self.rng.shuffle(&mut pool);
                        pool.truncate(self.spec.sources as usize);
                        self.pattern = pool;
                        let (a, b) = fresh_edge(self.writes);
                        self.writes += 1;
                        Op::Consult {
                            text: format!("edge({a},{b})."),
                        }
                    }
                    1 => {
                        let (a, b) = fresh_edge(self.writes - 1);
                        Op::Count {
                            goal: format!("edge({a},{b})"),
                            expect: 1,
                        }
                    }
                    _ => {
                        let k = self.pattern[(phase - 2) % self.pattern.len()];
                        self.path_count(k)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsb_core::Engine;

    fn ops(name: &str, seed: u64, count: usize) -> Vec<Op> {
        let spec = spec(name).unwrap();
        let mut s = Stream::new(&spec, seed);
        (0..count).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_order() {
        for name in WORKLOADS {
            let sp = spec(name).unwrap();
            assert_eq!(ops(name, 7, 200), ops(name, 7, 200), "{name}");
            assert_eq!(program(&sp, 7), program(&sp, 7), "{name}");
            let differs =
                ops(name, 7, 200) != ops(name, 8, 200) || program(&sp, 7) != program(&sp, 8);
            assert!(differs, "{name}: a second seed must change the inputs");
        }
    }

    #[test]
    fn seed_changes_order_not_sizes_or_expected_counts() {
        let expected = |op: &Op| match op {
            Op::Count { expect, .. } => *expect,
            Op::Query { expect, .. } => *expect,
            Op::Consult { .. } => 0,
        };
        for name in WORKLOADS {
            let sp = spec(name).unwrap();
            let (a, b) = (ops(name, 1, 200), ops(name, 2, 200));
            assert_eq!(
                a.iter().map(expected).collect::<Vec<_>>(),
                b.iter().map(expected).collect::<Vec<_>>()
            );
            assert_eq!(
                program(&sp, 1).lines().count(),
                program(&sp, 2).lines().count()
            );
        }
    }

    #[test]
    fn checksum_ignores_order_and_sees_a_wrong_binding() {
        let mut answers = cycle_answers(16);
        let sum = answers_checksum(&answers);
        answers.reverse();
        assert_eq!(answers_checksum(&answers), sum);
        answers[3][0].1 = "17".to_string();
        assert_ne!(answers_checksum(&answers), sum);
    }

    /// The model's expected counts and checksum against a real engine, on
    /// programs small enough to evaluate in a unit test.
    #[test]
    fn model_agrees_with_a_real_engine() {
        for name in WORKLOADS {
            let sp = Spec {
                n: if name == "join_sld" { 2000 } else { 12 },
                sources: spec(name).unwrap().sources.min(12),
                prebuilt_log: 0,
                ..spec(name).unwrap()
            };
            let mut e = Engine::new();
            e.consult(&program(&sp, 3)).unwrap();
            let mut s = Stream::new(&sp, 3);
            for _ in 0..30 {
                match s.next_op() {
                    Op::Count { goal, expect } => {
                        assert_eq!(e.count(&goal).unwrap() as u64, expect, "{name}: {goal}")
                    }
                    Op::Query {
                        goal,
                        expect,
                        checksum,
                    } => {
                        let rendered: Vec<Answer> = e
                            .query(&goal)
                            .unwrap()
                            .iter()
                            .map(|sol| {
                                sol.bindings
                                    .iter()
                                    .map(|(k, t)| (k.clone(), t.display(&e.syms).to_string()))
                                    .collect()
                            })
                            .collect();
                        assert_eq!(rendered.len() as u64, expect);
                        assert_eq!(answers_checksum(&rendered), checksum);
                    }
                    Op::Consult { text } => e.consult(&text).unwrap(),
                }
            }
            if sp.kind == Kind::UpdateChurn {
                let edges = e.count("edge(X,Y)").unwrap() as u64;
                assert_eq!(edges, sp.base_edges() + 3);
            }
        }
    }
}
