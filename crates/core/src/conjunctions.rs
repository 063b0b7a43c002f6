//! The auxiliary conjunctive queries of Definition 4.5: `bound-exit`, `free-exit`,
//! `bound-first`, `free-last`, `bound`, `free`, and `middle`.
//!
//! Each is built from the conjunctions identified by rule classification
//! ([`crate::classify`](mod@crate::classify)) and is represented as a
//! [`ConjunctiveQuery`] so that the factorability conditions (Definitions
//! 4.6–4.8) can be decided with the Chandra–Merlin containment test. `equal/2` atoms introduced by standard-form
//! conversion are eliminated by substitution before the queries are returned.

use factorlog_datalog::ast::{Atom, Term};
use factorlog_datalog::cq::ConjunctiveQuery;
use factorlog_datalog::symbol::Symbol;

use crate::classify::ClassifiedRule;

fn build(head_vars: &[Symbol], body: &[Atom]) -> ConjunctiveQuery {
    let mut cq = ConjunctiveQuery::new(
        head_vars.iter().map(|&v| Term::Var(v)).collect(),
        body.to_vec(),
    );
    cq.normalize_equalities();
    cq
}

/// `bound-exit(X̄) :- exit(X̄, Ȳ).` — defined for exit rules.
pub fn bound_exit(rule: &ClassifiedRule) -> ConjunctiveQuery {
    build(&rule.head_bound, &rule.exit_conj)
}

/// `free-exit(Ȳ) :- exit(X̄, Ȳ).` — defined for exit rules.
pub fn free_exit(rule: &ClassifiedRule) -> ConjunctiveQuery {
    build(&rule.head_free, &rule.exit_conj)
}

/// `bound(X̄) :- left(X̄).` — defined for left-linear and combined rules.
pub fn bound(rule: &ClassifiedRule) -> ConjunctiveQuery {
    build(&rule.head_bound, &rule.left_conj)
}

/// `free(Ȳ) :- right(Ȳ).` — defined for right-linear and combined rules.
pub fn free(rule: &ClassifiedRule) -> ConjunctiveQuery {
    build(&rule.head_free, &rule.right_conj)
}

/// `bound-first(X̄) :- first(X̄, V̄).` — defined for right-linear rules.
pub fn bound_first(rule: &ClassifiedRule) -> ConjunctiveQuery {
    build(&rule.head_bound, &rule.first_conj)
}

/// `free-last(Ȳ) :- last(Ū.., Ȳ).` — defined for left-linear rules.
pub fn free_last(rule: &ClassifiedRule) -> ConjunctiveQuery {
    build(&rule.head_free, &rule.last_conj)
}

/// `middle(Ū, V̄) :- center(Ū, V̄).` — defined for combined rules. The head is the
/// concatenation of the free-position variables of the left-linear occurrences (in
/// body order) followed by the bound-position variables of the right-linear
/// occurrence.
pub fn middle(rule: &ClassifiedRule) -> ConjunctiveQuery {
    let head: Vec<Symbol> = rule
        .u_vars
        .iter()
        .chain(rule.v_vars.iter())
        .copied()
        .collect();
    build(&head, &rule.center_conj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adorn::adorn;
    use crate::classify::classify;
    use factorlog_datalog::parser::{parse_program, parse_query};

    fn classified(src: &str, query: &str) -> crate::classify::ProgramClassification {
        let program = parse_program(src).unwrap().program;
        let query = parse_query(query).unwrap();
        classify(&adorn(&program, &query).unwrap()).unwrap()
    }

    #[test]
    fn three_rule_tc_conjunctions() {
        let c = classified(
            "t(X, Y) :- t(X, W), t(W, Y).\n\
             t(X, Y) :- e(X, W), t(W, Y).\n\
             t(X, Y) :- t(X, W), e(W, Y).\n\
             t(X, Y) :- e(X, Y).",
            "t(5, Y)",
        );
        // Exit rule: bound_exit(X) :- e(X, Y); free_exit(Y) :- e(X, Y).
        let exit = &c.rules[3];
        assert_eq!(format!("{}", bound_exit(exit)), "(X) :- e(X, Y)");
        assert_eq!(format!("{}", free_exit(exit)), "(Y) :- e(X, Y)");
        // Combined rule: all of left/center/right are empty, so bound/free/middle are
        // universal queries.
        let combined = &c.rules[0];
        assert!(bound(combined).is_universal());
        assert!(free(combined).is_universal());
        assert!(middle(combined).is_universal());
        assert_eq!(middle(combined).arity(), 2);
        // Right-linear rule: bound_first(X) :- e(X, W); free universal.
        let right = &c.rules[1];
        assert_eq!(format!("{}", bound_first(right)), "(X) :- e(X, W)");
        assert!(free(right).is_universal());
        // Left-linear rule: free_last(Y) :- e(W, Y); bound universal.
        let left = &c.rules[2];
        assert_eq!(format!("{}", free_last(left)), "(Y) :- e(W, Y)");
        assert!(bound(left).is_universal());
    }

    #[test]
    fn example_4_3_conjunctions() {
        let c = classified(
            "p(X, Y) :- l1(X), p(X, U), c1(U, V), p(V, Y), r1(Y).\n\
             p(X, Y) :- f(X, V), p(V, Y), r3(Y).\n\
             p(X, Y) :- e(X, Y).",
            "p(5, Y)",
        );
        let combined = &c.rules[0];
        assert_eq!(format!("{}", bound(combined)), "(X) :- l1(X)");
        assert_eq!(format!("{}", free(combined)), "(Y) :- r1(Y)");
        assert_eq!(format!("{}", middle(combined)), "(U, V) :- c1(U, V)");
        let right = &c.rules[1];
        assert_eq!(format!("{}", bound_first(right)), "(X) :- f(X, V)");
        assert_eq!(format!("{}", free(right)), "(Y) :- r3(Y)");
        let exit = &c.rules[2];
        assert_eq!(format!("{}", free_exit(exit)), "(Y) :- e(X, Y)");
    }

    #[test]
    fn containment_checks_between_conjunctions() {
        // Exit rule carries the right restrictions, so free_exit ⊆ free holds.
        let c = classified(
            "p(X, Y) :- l(X), p(X, U), c1(U, V), p(V, Y), r1(Y).\n\
             p(X, Y) :- e(X, Y), r1(Y).",
            "p(5, Y)",
        );
        let combined = &c.rules[0];
        let exit = &c.rules[1];
        assert!(free_exit(exit).is_contained_in(&free(combined)));
        assert!(!free(combined).is_contained_in(&free_exit(exit)));
        assert!(!bound_exit(exit).is_contained_in(&bound(combined)));
    }

    #[test]
    fn middle_with_multiple_left_occurrences() {
        let c = classified(
            "p(X, Y) :- l1(X), p(X, U), p(X, V), c(U, V, W), p(W, Y), r1(Y).\n\
             p(X, Y) :- e(X, Y).",
            "p(5, Y)",
        );
        let combined = &c.rules[0];
        let m = middle(combined);
        assert_eq!(
            m.arity(),
            3,
            "U, V from the left occurrences plus W from the right"
        );
        assert_eq!(format!("{m}"), "(U, V, W) :- c(U, V, W)");
    }

    #[test]
    fn equalities_from_standard_form_are_normalized() {
        // Exit rule p(X, X): in standard form the head is p(X, _sf1) with
        // equal(_sf1, X); free_exit is then (X) :- n(X) after substitution.
        let c = classified("p(X, Y) :- p(X, W), e(W, Y).\np(X, X) :- n(X).", "p(5, Y)");
        let exit = &c.rules[1];
        let fe = free_exit(exit);
        assert_eq!(fe.arity(), 1);
        assert!(!fe.is_universal());
        assert_eq!(format!("{fe}"), "(X) :- n(X)");
    }
}
