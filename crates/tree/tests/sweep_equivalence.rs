//! The one-pass analyses ([`ExecutionTree::sweep`] and everything that
//! reads it: `frontier`, `coverage`, `closed_fraction`, proof assembly)
//! against the per-node walks they replaced, kept here as reference
//! oracles. Trees are random: shared prefixes, multi-site (interleaving)
//! nodes, random infeasibility marks and all four outcomes, held in
//! memory, paged, round-tripped through a full snapshot, and rebuilt from
//! a snapshot plus a delta. Every assembled certificate must also pass
//! the independent `verify`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use softborg_hive::proofs::PROPERTY_NO_FAILURE;
use softborg_hive::{assemble, verify, ProofCertificate};
use softborg_program::cfg::Loc;
use softborg_program::codec::Reader;
use softborg_program::interp::{CrashKind, Outcome};
use softborg_program::{BranchSiteId, ThreadId};
use softborg_store::PagedConfig;
use softborg_tree::{CoverageStats, ExecutionTree, FrontierArm, NodeId};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The per-node walks the sweep replaced, written against the public
/// node accessors exactly as they were.
mod oracle {
    use super::*;

    fn children(tree: &ExecutionTree, id: NodeId) -> Vec<NodeId> {
        tree.with_node(id, |n| {
            let mut out = Vec::new();
            for site in n.sites() {
                for taken in [false, true] {
                    if let Some(c) = n.child(site, taken) {
                        out.push(c);
                    }
                }
            }
            out
        })
    }

    pub fn frontier(tree: &ExecutionTree) -> Vec<FrontierArm> {
        let mut out = Vec::new();
        for i in 0..tree.node_count() {
            let id = NodeId(i as u32);
            let (missing, visits) = tree.with_node(id, |n| {
                let mut missing = Vec::new();
                for site in n.sites() {
                    for taken in [false, true] {
                        if n.child(site, taken).is_none() && !n.is_infeasible(site, taken) {
                            missing.push((site, taken));
                        }
                    }
                }
                (missing, n.visits)
            });
            if missing.is_empty() {
                continue;
            }
            let depth = tree.depth(id);
            for (site, missing_taken) in missing {
                out.push(FrontierArm {
                    node: id,
                    site,
                    missing_taken,
                    depth,
                    visits,
                });
            }
        }
        out
    }

    enum Closure {
        Leaf(bool),
        Multi,
        Single([Option<Option<NodeId>>; 2]),
    }

    /// `None` = infeasible arm, `Some(None)` = missing, `Some(Some(c))`
    /// = explored.
    fn closure(tree: &ExecutionTree, id: NodeId) -> Closure {
        tree.with_node(id, |n| {
            let sites = n.sites();
            match sites.as_slice() {
                [] => Closure::Leaf(n.is_terminal()),
                [site] => {
                    let arm = |taken| {
                        if n.is_infeasible(*site, taken) {
                            None
                        } else {
                            Some(n.child(*site, taken))
                        }
                    };
                    Closure::Single([arm(false), arm(true)])
                }
                _ => Closure::Multi,
            }
        })
    }

    fn closed_rec(tree: &ExecutionTree, root: NodeId, memo: &mut [Option<bool>]) -> bool {
        let mut stack = vec![(root, false)];
        while let Some((node, expanded)) = stack.pop() {
            if memo[node.0 as usize].is_some() {
                continue;
            }
            match closure(tree, node) {
                Closure::Leaf(terminal) => memo[node.0 as usize] = Some(terminal),
                Closure::Multi => memo[node.0 as usize] = Some(false),
                Closure::Single(arms) => {
                    if !expanded {
                        stack.push((node, true));
                        for c in arms.iter().flatten().flatten() {
                            stack.push((*c, false));
                        }
                        continue;
                    }
                    let closed = arms.iter().all(|arm| match arm {
                        None => true,
                        Some(None) => false,
                        Some(Some(c)) => memo[c.0 as usize].unwrap_or(false),
                    });
                    memo[node.0 as usize] = Some(closed);
                }
            }
        }
        memo[root.0 as usize].unwrap_or(false)
    }

    pub fn is_closed(tree: &ExecutionTree, node: NodeId) -> bool {
        let mut memo = vec![None; tree.node_count() as usize];
        closed_rec(tree, node, &mut memo)
    }

    pub fn closed_fraction(tree: &ExecutionTree) -> f64 {
        let mut memo = vec![None; tree.node_count() as usize];
        let closed = (0..tree.node_count())
            .filter(|i| closed_rec(tree, NodeId(*i as u32), &mut memo))
            .count();
        closed as f64 / tree.node_count() as f64
    }

    pub fn subtree_failures(tree: &ExecutionTree, node: NodeId) -> u64 {
        let mut sum = 0;
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            sum += tree.with_node(id, |n| n.terminal.failures());
            stack.extend(children(tree, id));
        }
        sum
    }

    pub fn subtree_nodes(tree: &ExecutionTree, root: NodeId) -> u64 {
        let mut count = 0;
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            count += 1;
            stack.extend(children(tree, id));
        }
        count
    }

    pub fn coverage(tree: &ExecutionTree) -> CoverageStats {
        let mut sites = HashSet::new();
        for i in 0..tree.node_count() {
            sites.extend(tree.with_node(NodeId(i as u32), |n| n.sites()));
        }
        CoverageStats {
            nodes: tree.node_count(),
            distinct_paths: tree.distinct_paths(),
            sites_seen: sites.len() as u64,
            paths_merged: tree.paths_merged(),
            frontier_arms: frontier(tree).len() as u64,
            closed_fraction: closed_fraction(tree),
        }
    }

    pub fn assemble(tree: &ExecutionTree) -> Vec<ProofCertificate> {
        let digest = tree.digest();
        let mut certs = Vec::new();
        let mut queue = vec![NodeId::ROOT];
        while let Some(id) = queue.pop() {
            let clean = subtree_failures(tree, id) == 0;
            let visits = tree.with_node(id, |n| n.visits);
            if clean && is_closed(tree, id) && visits > 0 {
                certs.push(ProofCertificate {
                    program: tree.program(),
                    prefix: tree.prefix(id),
                    property: PROPERTY_NO_FAILURE.to_string(),
                    nodes: subtree_nodes(tree, id),
                    visits,
                    tree_digest: digest,
                });
                continue;
            }
            queue.extend(children(tree, id));
        }
        certs
    }
}

fn s(i: u32) -> BranchSiteId {
    BranchSiteId::new(i)
}

fn outcome(rng: &mut SmallRng) -> Outcome {
    let loc = Loc {
        thread: ThreadId::new(0),
        ..Loc::default()
    };
    match rng.gen_range(0..10u32) {
        0 => Outcome::Crash {
            loc,
            kind: CrashKind::AssertFailed,
        },
        1 => Outcome::Deadlock { cycle: vec![] },
        2 => Outcome::Hang { stuck: vec![loc] },
        _ => Outcome::Success,
    }
}

/// One random path over a small alphabet, so paths share prefixes: the
/// site is usually fixed by depth (one site per node) and sometimes an
/// alternative, which makes interleaving-style multi-site nodes.
fn random_path(rng: &mut SmallRng, max_len: usize) -> Vec<(BranchSiteId, bool)> {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|depth| {
            let site = if rng.gen_range(0..8u32) == 0 {
                100 + depth as u32
            } else {
                depth as u32
            };
            (s(site), rng.gen_bool(0.5))
        })
        .collect()
}

/// Merges `paths` random paths and marks some arms infeasible: mostly
/// missing arms of observed sites (which closes subtrees), sometimes an
/// explored arm or an unobserved site.
fn grow(tree: &mut ExecutionTree, rng: &mut SmallRng, paths: usize, max_len: usize) {
    for _ in 0..paths {
        let p = random_path(rng, max_len);
        let o = outcome(rng);
        tree.merge_path(&p, &o);
    }
    let marks = rng.gen_range(0..=tree.node_count() / 2);
    for _ in 0..marks {
        let node = NodeId(rng.gen_range(0..tree.node_count()) as u32);
        let sites = tree.with_node(node, |n| n.sites());
        let taken = rng.gen_bool(0.5);
        let site = match sites.first() {
            Some(site) if rng.gen_range(0..6u32) != 0 => {
                let missing = tree.with_node(node, |n| n.child(*site, !taken).is_none());
                if missing {
                    *site
                } else if rng.gen_bool(0.8) {
                    continue;
                } else {
                    *site
                }
            }
            _ => s(rng.gen_range(0..200)),
        };
        let flip = rng.gen_range(0..6u32) != 0;
        tree.mark_infeasible(node, site, if flip { !taken } else { taken });
    }
}

fn random_tree(seed: u64, paths: usize, max_len: usize) -> ExecutionTree {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tree = ExecutionTree::new(softborg_program::ProgramId(seed % 7));
    grow(&mut tree, &mut rng, paths, max_len);
    tree
}

/// Every sweep-based analysis equals its oracle on `tree`, and every
/// assembled certificate verifies.
fn assert_matches_oracles(tree: &ExecutionTree, what: &str) {
    let sweep = tree.sweep();
    for i in 0..tree.node_count() {
        let id = NodeId(i as u32);
        let closed = oracle::is_closed(tree, id);
        let failures = oracle::subtree_failures(tree, id);
        assert_eq!(sweep.depth(id), tree.depth(id), "{what}: depth of {id:?}");
        assert_eq!(
            sweep.is_closed(id),
            closed,
            "{what}: sweep closure of {id:?}"
        );
        assert_eq!(tree.is_closed(id), closed, "{what}: walk closure of {id:?}");
        assert_eq!(sweep.subtree_failures(id), failures, "{what}: failures");
        assert_eq!(tree.subtree_failures(id), failures, "{what}: walk failures");
        assert_eq!(
            sweep.subtree_size(id),
            oracle::subtree_nodes(tree, id),
            "{what}: size of {id:?}"
        );
    }
    let frontier = oracle::frontier(tree);
    assert_eq!(
        sweep.frontier(),
        frontier.as_slice(),
        "{what}: sweep frontier"
    );
    assert_eq!(tree.frontier(), frontier, "{what}: frontier");
    assert_eq!(tree.coverage(), oracle::coverage(tree), "{what}: coverage");
    assert_eq!(
        tree.closed_fraction().to_bits(),
        oracle::closed_fraction(tree).to_bits(),
        "{what}: closed fraction"
    );
    let certs = assemble(tree);
    assert_eq!(certs, oracle::assemble(tree), "{what}: certificates");
    for cert in &certs {
        verify(cert, tree).unwrap_or_else(|e| panic!("{what}: {cert} fails verify: {e}"));
    }
}

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "softborg-sweep-equivalence-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn roundtrip(tree: &ExecutionTree) -> ExecutionTree {
    let mut buf = Vec::new();
    tree.encode_into(&mut buf);
    ExecutionTree::decode(&mut Reader::new(&buf)).expect("snapshot decodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sweep_matches_the_walks_in_memory(seed in any::<u64>(), paths in 1usize..40, max_len in 0usize..10) {
        let tree = random_tree(seed, paths, max_len);
        assert_matches_oracles(&tree, "in memory");
    }

    #[test]
    fn sweep_matches_the_walks_on_a_paged_tree(seed in any::<u64>(), paths in 1usize..40, page_len in 1usize..6) {
        let mut tree = random_tree(seed, paths, 8);
        let dir = scratch_dir();
        tree.enable_paging(PagedConfig::new(&dir, page_len, 2)).unwrap();
        assert_matches_oracles(&tree, "paged");
        drop(tree);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_matches_the_walks_after_a_snapshot_roundtrip(seed in any::<u64>(), paths in 1usize..40) {
        let tree = random_tree(seed, paths, 8);
        assert_matches_oracles(&roundtrip(&tree), "decoded");
    }

    #[test]
    fn sweep_matches_the_walks_after_a_delta(seed in any::<u64>(), before in 1usize..25, after in 0usize..25) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut live = ExecutionTree::new(softborg_program::ProgramId(3));
        grow(&mut live, &mut rng, before, 8);
        let mut resumed = roundtrip(&live);
        live.mark_clean();
        grow(&mut live, &mut rng, after, 8);
        let mut delta = Vec::new();
        live.encode_delta_into(&mut delta);
        resumed.apply_delta(&mut Reader::new(&delta)).expect("delta applies");
        assert_eq!(resumed.coverage(), live.coverage());
        assert_matches_oracles(&resumed, "delta");
    }

    #[test]
    fn sweep_matches_the_walks_after_absorb(seed in any::<u64>(), paths in 1usize..25) {
        let mut a = random_tree(seed, paths, 8);
        let b = random_tree(seed.wrapping_add(1), paths, 8);
        a.absorb(&b);
        assert_matches_oracles(&a, "absorbed");
    }
}

/// Exhaustive exploration of a 3-deep fork closes the whole tree; the
/// only certificate is the whole program.
#[test]
fn complete_clean_tree_yields_one_whole_program_certificate() {
    let mut tree = ExecutionTree::new(softborg_program::ProgramId(1));
    for bits in 0..8u32 {
        let p: Vec<_> = (0..3).map(|d| (s(d), bits >> d & 1 == 1)).collect();
        tree.merge_path(&p, &Outcome::Success);
    }
    assert_matches_oracles(&tree, "complete");
    let certs = assemble(&tree);
    assert_eq!(certs.len(), 1);
    assert!(certs[0].is_whole_program());
    assert_eq!(certs[0].nodes, 15);
}
