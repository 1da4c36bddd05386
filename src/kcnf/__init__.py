"""Tools for (k,s)-CNF: formulas where every clause has exactly k literals
and no variable occurs in more than s clauses. Each name is imported from
its submodule; the package re-exports nothing.

  formula        clauses, formulas, products, substitute, per-variable
                 occurrence totals, WidthPartition (the derivation state)
  dimacs         canonical DIMACS writer and validating reader
  solver         CDCL solver, model enumeration, instance verification
  constructions  the two closed-form families and the local-lemma floor
  calculus       split/compose of derivation states, traces, annotation
  dp             exact f2(k), witness traces, materialization, f2 tables
  cli            the `kcnf` command line
"""
