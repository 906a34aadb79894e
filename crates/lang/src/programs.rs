//! Canonical NDlog programs from the paper, as reusable builders.
//!
//! Every builder takes a `suffix` so multiple instances of the same query
//! (e.g. the four metric variants of Figure 7, or concurrent queries in the
//! message-sharing experiment) can coexist in one engine without their
//! relations colliding: relation `path` becomes `path_<suffix>` and so on.
//! The `link_<suffix>` relation is the query's input; the engine populates
//! it from the overlay with the appropriate metric as the cost column.

use crate::ast::Program;
use crate::magic::MagicBinding;
use crate::optimizer::{optimize, MagicSpec, Pipeline};
use crate::parser::parse_program;
use crate::reorder::BodyOrder;

/// Relation names used by a shortest-path query instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShortestPathRelations {
    /// The input link relation (`link_<suffix>`).
    pub link: String,
    /// The derived path relation.
    pub path: String,
    /// The destination-accumulated path relation (source-routing variant).
    pub path_dst: String,
    /// The per-(source, destination) minimum cost relation.
    pub sp_cost: String,
    /// The final shortest-path relation.
    pub shortest_path: String,
    /// The magic destination table (only used by the magic variants).
    pub magic_dst: String,
    /// The magic source table (only used by the source-routing variant).
    pub magic_src: String,
}

impl ShortestPathRelations {
    /// Relation names for a given suffix.
    pub fn new(suffix: &str) -> Self {
        let s = |base: &str| {
            if suffix.is_empty() {
                base.to_string()
            } else {
                format!("{base}_{suffix}")
            }
        };
        ShortestPathRelations {
            link: s("link"),
            path: s("path"),
            path_dst: s("pathDst"),
            sp_cost: s("spCost"),
            shortest_path: s("shortestPath"),
            magic_dst: s("magicDst"),
            magic_src: s("magicSrc"),
        }
    }
}

/// The all-pairs shortest-path query of Figure 1 (rules SP1–SP4), with the
/// standard cycle-avoidance filter on the recursive rule. This is the
/// bottom-up (right-recursive) form: paths accumulate at the *source* and
/// grow towards the destination by following links backwards.
pub fn shortest_path(suffix: &str) -> Program {
    let r = ShortestPathRelations::new(suffix);
    let src = format!(
        r#"
        materialize({link}, keys(1,2)).
        materialize({path}, keys(1,2,4)).
        materialize({spc}, keys(1,2)).
        materialize({sp}, keys(1,2)).

        sp1 {path}(@S,@D,@D,P,C) :- #{link}(@S,@D,C),
            P := f_cons(S, f_cons(D, nil)).
        sp2 {path}(@S,@D,@Z,P,C) :- #{link}(@S,@Z,C1), {path}(@Z,@D,@Z2,P2,C2),
            f_member(P2, S) == 0, C := C1 + C2, P := f_cons(S, P2).
        sp3 {spc}(@S,@D,min<C>) :- {path}(@S,@D,@Z,P,C).
        sp4 {sp}(@S,@D,P,C) :- {spc}(@S,@D,C), {path}(@S,@D,@Z,P,C).

        query {sp}(@S,@D,P,C).
        "#,
        link = r.link,
        path = r.path,
        spc = r.sp_cost,
        sp = r.shortest_path,
    );
    parse_program(&src).expect("shortest_path program is well-formed")
}

/// The optimizer pipeline that derives the destination-constrained
/// variant from [`shortest_path`]: one magic-sets rewrite binding the
/// destination argument of `path`'s base rules.
fn magic_dst_pipeline(suffix: &str) -> Pipeline {
    let r = ShortestPathRelations::new(suffix);
    Pipeline::new(
        vec![MagicSpec::new(
            r.path,
            r.magic_dst,
            MagicBinding::HeadArg(1),
        )],
        None,
    )
}

/// The destination-constrained variant (rule SP1-D of Section 5.1.2):
/// identical to [`shortest_path`] except that 1-hop paths are only seeded
/// towards destinations present in the `magicDst` table. Derived from
/// [`shortest_path`] by running `magic_dst_pipeline` through the
/// optimizer rather than written by hand.
pub fn shortest_path_magic_dst(suffix: &str) -> Program {
    optimize(&shortest_path(suffix), &magic_dst_pipeline(suffix))
        .expect("magic-dst pipeline applies to the shortest-path program")
        .program
}

/// The unoptimized top-down base of the source-routing variant: paths
/// accumulate at the *destination* (`pathDst`) and grow forward from every
/// source, with the recursive rule still written link-first. The optimizer
/// pipeline ([`source_routing_pipeline`]) turns this into the paper's
/// SP1-SD…SP4-SD form: reordering makes SD2 left-recursive and the magic
/// rewrites constrain sources (`magicSrc`) and destinations (`magicDst`).
pub fn shortest_path_source_routing_base(suffix: &str) -> Program {
    let r = ShortestPathRelations::new(suffix);
    let src = format!(
        r#"
        materialize({link}, keys(1,2)).
        materialize({pathdst}, keys(1,2,4)).
        materialize({spc}, keys(1,2)).
        materialize({sp}, keys(1,2)).

        sd1 {pathdst}(@D,@S,@D,P,C) :- #{link}(@S,@D,C),
            P := f_append(f_cons(S, nil), D).
        sd2 {pathdst}(@D,@S,@Z,P,C) :- #{link}(@Z,@D,C2), {pathdst}(@Z,@S,@Z1,P1,C1),
            f_member(P1, D) == 0, C := C1 + C2, P := f_append(P1, D).
        sd3 {spc}(@D,@S,min<C>) :- {pathdst}(@D,@S,@Z,P,C).
        sd4 {sp}(@D,@S,P,C) :- {spc}(@D,@S,C), {pathdst}(@D,@S,@Z,P,C).

        query {sp}(@D,@S,P,C).
        "#,
        link = r.link,
        pathdst = r.path_dst,
        spc = r.sp_cost,
        sp = r.shortest_path,
    );
    parse_program(&src).expect("shortest_path_source_routing_base program is well-formed")
}

/// The optimizer pipeline that derives the source-routing variant from
/// [`shortest_path_source_routing_base`]: predicate reordering (link last,
/// making SD2 left-recursive / top-down) plus two magic-sets rewrites —
/// `magicSrc` binds the source argument of `pathDst`'s base rule and
/// `magicDst` filters the final `shortestPath` join.
pub fn source_routing_pipeline(suffix: &str) -> Pipeline {
    let r = ShortestPathRelations::new(suffix);
    Pipeline::new(
        vec![
            MagicSpec::new(r.path_dst, r.magic_src, MagicBinding::HeadArg(1)),
            MagicSpec::new(r.shortest_path, r.magic_dst, MagicBinding::HeadArg(0)),
        ],
        Some(BodyOrder::LinkLast),
    )
}

/// The source-and-destination-constrained, top-down variant (rules SP1-SD
/// to SP4-SD of Section 5.1.2), obtained by predicate reordering: paths
/// accumulate at the *destination* (`pathDst`) and grow forward from the
/// sources listed in `magicSrc`; results are filtered by `magicDst`. This
/// execution resembles dynamic source routing. Derived from
/// [`shortest_path_source_routing_base`] by running
/// [`source_routing_pipeline`] through the optimizer.
pub fn shortest_path_source_routing(suffix: &str) -> Program {
    optimize(
        &shortest_path_source_routing_base(suffix),
        &source_routing_pipeline(suffix),
    )
    .expect("source-routing pipeline applies to the TD base program")
    .program
}

/// A minimal two-rule reachability program used by tests and the
/// quickstart example: `reachable(@S,@D)` holds when `D` can be reached
/// from `S` over links.
pub fn reachability(suffix: &str) -> Program {
    let r = ShortestPathRelations::new(suffix);
    let reach = if suffix.is_empty() {
        "reachable".to_string()
    } else {
        format!("reachable_{suffix}")
    };
    let src = format!(
        r#"
        materialize({link}, keys(1,2)).
        materialize({reach}, keys(1,2)).

        rc1 {reach}(@S,@D) :- #{link}(@S,@D,C).
        rc2 {reach}(@S,@D) :- #{link}(@S,@Z,C), {reach}(@Z,@D).

        query {reach}(@S,@D).
        "#,
        link = r.link,
        reach = reach,
    );
    parse_program(&src).expect("reachability program is well-formed")
}

/// Soft-state variant of [`shortest_path`]: every relation carries a TTL,
/// so stored tuples vanish unless refreshed. This is the paper's
/// soft-state model (Section 4.2): loss, churn and failure are not
/// repaired explicitly — stale state expires, and live state survives
/// because the periodic refresh cycle re-announces it (a duplicate insert
/// renews the stored tuple's lifetime). Pair it with the engine's refresh
/// driver and a fault plan to exercise the healing path.
pub fn shortest_path_soft(suffix: &str, ttl_seconds: f64) -> Program {
    let r = ShortestPathRelations::new(suffix);
    let src = format!(
        r#"
        materialize({link}, keys(1,2), ttl({ttl})).
        materialize({path}, keys(1,2,4), ttl({ttl})).
        materialize({spc}, keys(1,2), ttl({ttl})).
        materialize({sp}, keys(1,2), ttl({ttl})).

        sp1 {path}(@S,@D,@D,P,C) :- #{link}(@S,@D,C),
            P := f_cons(S, f_cons(D, nil)).
        sp2 {path}(@S,@D,@Z,P,C) :- #{link}(@S,@Z,C1), {path}(@Z,@D,@Z2,P2,C2),
            f_member(P2, S) == 0, C := C1 + C2, P := f_cons(S, P2).
        sp3 {spc}(@S,@D,min<C>) :- {path}(@S,@D,@Z,P,C).
        sp4 {sp}(@S,@D,P,C) :- {spc}(@S,@D,C), {path}(@S,@D,@Z,P,C).

        query {sp}(@S,@D,P,C).
        "#,
        link = r.link,
        path = r.path,
        spc = r.sp_cost,
        sp = r.shortest_path,
        ttl = ttl_seconds,
    );
    parse_program(&src).expect("shortest_path_soft program is well-formed")
}

/// The distance-vector style "best next hop" program: like shortest path
/// but propagating only the next hop rather than the full path vector,
/// closer to how real routing protocols behave (Section 2.2 notes that many
/// protocols propagate only the next hop). Uses hop counts bounded by a
/// maximum to guarantee termination without a path-vector cycle check.
pub fn distance_vector(suffix: &str, max_hops: u32) -> Program {
    let r = ShortestPathRelations::new(suffix);
    let route = if suffix.is_empty() {
        "route".to_string()
    } else {
        format!("route_{suffix}")
    };
    let best = if suffix.is_empty() {
        "bestRoute".to_string()
    } else {
        format!("bestRoute_{suffix}")
    };
    let cost = if suffix.is_empty() {
        "bestCost".to_string()
    } else {
        format!("bestCost_{suffix}")
    };
    let src = format!(
        r#"
        materialize({link}, keys(1,2)).
        materialize({route}, keys(1,2,3,4)).
        materialize({cost}, keys(1,2)).
        materialize({best}, keys(1,2)).

        dv1 {route}(@S,@D,@D,C,H) :- #{link}(@S,@D,C), H := 1.
        dv2 {route}(@S,@D,@Z,C,H) :- #{link}(@S,@Z,C1), {route}(@Z,@D,@N,C2,H2),
            H := H2 + 1, H <= {max_hops}, C := C1 + C2.
        dv3 {cost}(@S,@D,min<C>) :- {route}(@S,@D,@Z,C,H).
        dv4 {best}(@S,@D,@Z,C) :- {cost}(@S,@D,C), {route}(@S,@D,@Z,C,H).

        query {best}(@S,@D,@Z,C).
        "#,
        link = r.link,
        route = route,
        cost = cost,
        best = best,
        max_hops = max_hops,
    );
    parse_program(&src).expect("distance_vector program is well-formed")
}

/// Distance-vector routing with *split horizon*: a node never advertises
/// a route back to the neighbor it learned it from. In rule form the
/// advertisement from `Z` to `S` is suppressed when `Z`'s next hop for the
/// destination is `S` itself (`N != S`) — the classic damping that removes
/// two-node count-to-infinity loops, on top of the hop bound that caps the
/// rest. With `ttl_seconds` set, every relation is soft state, so the
/// protocol can be stressed under fault plans: lost advertisements are
/// healed by refresh, stale routes by expiry.
pub fn distance_vector_split_horizon(
    suffix: &str,
    max_hops: u32,
    ttl_seconds: Option<f64>,
) -> Program {
    let r = ShortestPathRelations::new(suffix);
    let name = |base: &str| {
        if suffix.is_empty() {
            base.to_string()
        } else {
            format!("{base}_{suffix}")
        }
    };
    let route = name("route");
    let best = name("bestRoute");
    let cost = name("bestCost");
    let ttl = ttl_seconds
        .map(|t| format!(", ttl({t})"))
        .unwrap_or_default();
    let src = format!(
        r#"
        materialize({link}, keys(1,2){ttl}).
        materialize({route}, keys(1,2,3,4){ttl}).
        materialize({cost}, keys(1,2){ttl}).
        materialize({best}, keys(1,2){ttl}).

        dh1 {route}(@S,@D,@D,C,H) :- #{link}(@S,@D,C), H := 1.
        dh2 {route}(@S,@D,@Z,C,H) :- #{link}(@S,@Z,C1), {route}(@Z,@D,@N,C2,H2),
            N != S, H := H2 + 1, H <= {max_hops}, C := C1 + C2.
        dh3 {cost}(@S,@D,min<C>) :- {route}(@S,@D,@Z,C,H).
        dh4 {best}(@S,@D,@Z,C) :- {cost}(@S,@D,C), {route}(@S,@D,@Z,C,H).

        query {best}(@S,@D,@Z,C).
        "#,
        link = r.link,
        route = route,
        cost = cost,
        best = best,
        max_hops = max_hops,
        ttl = ttl,
    );
    parse_program(&src).expect("distance_vector_split_horizon program is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggsel::infer_aggregate_selections;
    use crate::localize::{is_localized, localize};
    use crate::validate::validate;

    fn assert_valid(p: &Program) {
        let errs = validate(p);
        assert!(errs.is_empty(), "{errs:?}");
        let localized = localize(p).expect("localizes");
        assert!(is_localized(&localized));
        assert!(
            validate(&localized).is_empty(),
            "{:?}",
            validate(&localized)
        );
    }

    #[test]
    fn shortest_path_is_valid_and_localizable() {
        assert_valid(&shortest_path(""));
        assert_valid(&shortest_path("latency"));
    }

    #[test]
    fn magic_dst_variant_is_valid() {
        assert_valid(&shortest_path_magic_dst("hops"));
        let p = shortest_path_magic_dst("hops");
        assert!(p.rules[0].body_atoms().any(|a| a.name == "magicDst_hops"));
    }

    #[test]
    fn source_routing_base_is_valid_before_optimization() {
        assert_valid(&shortest_path_source_routing_base(""));
        let base = shortest_path_source_routing_base("t");
        // No magic tables until the pipeline adds them.
        assert!(base.table_decl("magicSrc_t").is_none());
        assert!(base.table_decl("magicDst_t").is_none());
        let opt = shortest_path_source_routing("t");
        assert!(opt.table_decl("magicSrc_t").is_some());
        assert!(opt.table_decl("magicDst_t").is_some());
    }

    #[test]
    fn source_routing_variant_is_valid() {
        assert_valid(&shortest_path_source_routing(""));
        let p = shortest_path_source_routing("");
        // The TD recursive rule is left-recursive: pathDst before the link.
        let sd2 = p.rule("sd2").unwrap();
        let first = sd2.body_atoms().next().unwrap();
        assert_eq!(first.name, "pathDst");
        assert!(!first.link);
    }

    #[test]
    fn reachability_and_distance_vector_valid() {
        assert_valid(&reachability(""));
        assert_valid(&reachability("t"));
        assert_valid(&distance_vector("", 16));
    }

    #[test]
    fn suffixing_renames_all_relations() {
        let p = shortest_path("rand");
        for rule in &p.rules {
            assert!(rule.head.name.ends_with("_rand"));
        }
        let r = ShortestPathRelations::new("rand");
        assert_eq!(r.link, "link_rand");
        assert_eq!(r.shortest_path, "shortestPath_rand");
        let empty = ShortestPathRelations::new("");
        assert_eq!(empty.link, "link");
    }

    #[test]
    fn aggregate_selection_is_inferrable_from_programs() {
        for p in [
            shortest_path(""),
            shortest_path_magic_dst(""),
            shortest_path_source_routing(""),
        ] {
            let sels = infer_aggregate_selections(&p);
            assert_eq!(
                sels.len(),
                1,
                "each variant exposes exactly one min selection"
            );
        }
    }

    #[test]
    fn soft_shortest_path_declares_ttls() {
        let p = shortest_path_soft("soft", 5.0);
        assert_valid(&p);
        for name in ["link_soft", "path_soft", "spCost_soft", "shortestPath_soft"] {
            let decl = p
                .table_decl(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(decl.ttl_seconds, Some(5.0), "{name} must be soft state");
        }
    }

    #[test]
    fn split_horizon_adds_the_suppression_filter() {
        let p = distance_vector_split_horizon("", 8, None);
        assert_valid(&p);
        let dh2 = p.rule("dh2").unwrap();
        let filters = dh2
            .body
            .iter()
            .filter(|l| matches!(l, crate::ast::Literal::Filter(_)))
            .count();
        // The hop bound plus the split-horizon constraint.
        assert_eq!(filters, 2);
        assert!(p.table_decl("route").unwrap().ttl_seconds.is_none());

        let soft = distance_vector_split_horizon("dv", 8, Some(4.0));
        assert_valid(&soft);
        assert_eq!(
            soft.table_decl("bestRoute_dv").unwrap().ttl_seconds,
            Some(4.0)
        );
    }

    #[test]
    fn distance_vector_bounds_hops() {
        let p = distance_vector("", 8);
        let dv2 = p.rule("dv2").unwrap();
        let filters = dv2
            .body
            .iter()
            .filter(|l| matches!(l, crate::ast::Literal::Filter(_)))
            .count();
        assert_eq!(filters, 1);
    }
}
