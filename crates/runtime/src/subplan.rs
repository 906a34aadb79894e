//! Cross-rule shared subplans: a per-round probe cache.
//!
//! PR 5's key-grouped probe sharing ([`crate::batch`]) executes one index
//! lookup per distinct probe key *within* one strand's delta batch. This
//! module extends the sharing *across rules*: when several strands probe
//! the same `(relation, bound-column signature)` — the planner detects
//! this at compile time via [`shared_signatures`] — the engine arms a
//! [`ProbeCache`] for the evaluation round, and every distinct
//! `(relation, cols, key)` bucket lookup is executed once no matter how
//! many strands (or stages) probe it. This is sound because all strands
//! of a round fire against one frozen store snapshot — ingestion of their
//! derivations happens only after the round's firing completes — so a
//! probe's raw candidate set is a pure function of `(relation, cols,
//! key)` for the lifetime of the cache.
//!
//! The cache stores the **raw** [`crate::relation::Relation::lookup_n`]
//! candidates, *before* residual ops and visibility filtering: residual
//! checks and `seq_limit`s are stage- and member-specific, so they replay
//! per consumer exactly as uncached evaluation would. Statistics follow
//! the two-counter contract of [`crate::index::JoinStats`]: every probe —
//! hit or miss — records its full per-environment `logical_probes` /
//! `scans` / `tuples_examined` contribution (identical to uncached
//! evaluation, so differential tests keep passing), while
//! `distinct_probes` is only incremented by misses, making the counter
//! report bucket lookups *actually executed* across the whole round. Hit
//! and miss decisions depend only on first-occurrence order of keys in
//! the (fixed) strand firing order, never on hash-map iteration order, so
//! armed runs stay bitwise deterministic across executor thread counts.

use crate::index::JoinStats;
use crate::relation::{Relation, StoredTuple};
use crate::strand::CompiledStrand;
use ndlog_lang::value::FxBuild;
use ndlog_lang::Value;
use std::collections::{BTreeMap, HashMap};

/// The probe signatures worth caching: every `(relation, bound-column
/// signature)` probed by two or more of the given strands' stages (or
/// twice within one strand). Engines arm a [`ProbeCache`] per round only
/// when this is non-empty, so programs without cross-rule sharing pay
/// nothing. Re-derivation plans do not count: a DRed pass arms no cache.
pub fn shared_signatures(strands: &[CompiledStrand]) -> Vec<(String, Vec<usize>)> {
    let mut counts: BTreeMap<(String, Vec<usize>), usize> = BTreeMap::new();
    for strand in strands.iter().filter(|s| !s.is_rederivation()) {
        for sig in strand.index_requirements() {
            *counts.entry(sig).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter(|(_, n)| *n >= 2)
        .map(|(sig, _)| sig)
        .collect()
}

/// One cached probe: the raw candidate set of a `(relation, cols, key)`
/// lookup at unrestricted visibility, plus the per-environment statistics
/// contribution to replay on hits.
struct CachedProbe<'r> {
    per_logical: usize,
    per_scans: usize,
    per_examined: usize,
    matches: Vec<&'r StoredTuple>,
}

/// A per-round cross-rule probe cache. Created fresh for each evaluation
/// round (its borrows are tied to that round's frozen store) and passed
/// to [`CompiledStrand::fire_batch`] for every strand fired in the round.
pub struct ProbeCache<'r> {
    /// The armed signatures, from [`shared_signatures`]. Probes outside
    /// this list bypass the cache entirely (linear scan: the list is a
    /// handful of entries and the comparison allocates nothing).
    sigs: &'r [(String, Vec<usize>)],
    /// Per signature: probe key → cached candidates, under the crate's
    /// seedless hasher. The maps are only ever probed by key, never
    /// walked, so their order is unobservable.
    entries: Vec<HashMap<Box<[Value]>, CachedProbe<'r>, FxBuild>>,
    hits: usize,
    misses: usize,
}

impl<'r> ProbeCache<'r> {
    /// A cache armed for the given shared signatures.
    pub fn new(shared: &'r [(String, Vec<usize>)]) -> ProbeCache<'r> {
        ProbeCache {
            sigs: shared,
            entries: shared.iter().map(|_| HashMap::default()).collect(),
            hits: 0,
            misses: 0,
        }
    }

    /// Cached probes answered without a bucket lookup so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Probes that executed their lookup and populated the cache.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Serve one grouped probe on behalf of `members` same-key binding
    /// environments. Returns `None` when the signature is not armed (the
    /// caller then probes the relation directly); otherwise the raw
    /// candidate set, with `stats` updated per the module contract.
    pub(crate) fn probe(
        &mut self,
        stored: &'r Relation,
        relation: &str,
        cols: &[usize],
        key: &[Value],
        members: usize,
        stats: &mut JoinStats,
    ) -> Option<&[&'r StoredTuple]> {
        let sig = self
            .sigs
            .iter()
            .position(|(r, c)| r == relation && c == cols)?;
        let entries = &mut self.entries[sig];
        if let Some(entry) = entries.get(key) {
            stats.logical_probes += entry.per_logical * members;
            stats.scans += entry.per_scans * members;
            stats.tuples_examined += entry.per_examined * members;
            self.hits += 1;
        } else {
            let mut local = JoinStats::default();
            let matches: Vec<&'r StoredTuple> = stored
                .lookup_n(cols, key, u64::MAX, members, &mut local)
                .collect();
            // lookup_n scales every counter by `members`, so the
            // per-environment rates divide back out exactly.
            let entry = CachedProbe {
                per_logical: local.logical_probes / members,
                per_scans: local.scans / members,
                per_examined: local.tuples_examined / members,
                matches,
            };
            *stats += local;
            entries.insert(key.to_vec().into_boxed_slice(), entry);
            self.misses += 1;
        }
        Some(
            self.entries[sig]
                .get(key)
                .expect("present or just inserted")
                .matches
                .as_slice(),
        )
    }
}
