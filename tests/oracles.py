"""Brute-force enumeration oracles, independent of the groupoid machinery,
plus the per-entry fibre construction of span matrices (the definition that
span_matrix evaluates by groupoid cardinality).  gspans is imported inside
the functions: the benchmark imports this module before it times the import
of gspans."""

import itertools
from fractions import Fraction


def oracle_s1(n, k):
    """Permutations of an n-set with exactly k cycles, by enumeration."""
    if k < 0:
        return 0
    count = 0
    for p in itertools.permutations(range(n)):
        seen, cycles = set(), 0
        for i in range(n):
            if i not in seen:
                cycles += 1
                j = i
                while j not in seen:
                    seen.add(j)
                    j = p[j]
        if cycles == k:
            count += 1
    return count


def oracle_s2(n, m):
    """Partitions of an n-set into exactly m blocks, by enumeration."""
    if n == 0:
        return 1 if m == 0 else 0
    if m < 0:
        return 0
    count = 0

    def assignments(i, blocks):
        nonlocal count
        if i == n:
            if len(blocks) == m:
                count += 1
            return
        for b in blocks:
            b.append(i)
            assignments(i + 1, blocks)
            b.pop()
        if len(blocks) < m:
            blocks.append([i])
            assignments(i + 1, blocks)
            blocks.pop()

    assignments(0, [])
    return count


def abelian_group_order_lists(max_order):
    """All cyclic-order lists (each factor >= 2) with product <= max_order,
    plus the trivial group; covers every abelian group up to isomorphism."""
    out = [[]]

    def grow(prefix, smallest, prod):
        for n in range(smallest, max_order + 1):
            if prod * n > max_order:
                break
            out.append(prefix + [n])
            grow(prefix + [n], n, prod * n)

    grow([], 2, 1)
    return out


def fibre_chi_by_label(sp, c, d):
    """g -> chi((c\\M/d){label = g}) from the built two-sided fibre, with the
    label checked constant on its components; zero levels dropped."""
    from gspans.gspan import labeled_fibre

    by_label = labeled_fibre(sp, c, d).chi_by_label(check_constancy=True)
    return {g: x for g, x in by_label.items() if x != 0}


def fibre_span_matrix(sp):
    """The span matrix entry by entry: chi of each labelled two-sided fibre
    c\\M/d, scaled by 1/|T(d,d)|."""
    from gspans.algebra import GroupRingElement
    from gspans.gspan import SpanMatrix

    rows = sp.source.component_reps()
    cols = sp.target.component_reps()
    entries = [
        [
            GroupRingElement(
                sp.group,
                {
                    g: x * Fraction(1, sp.target.aut_order(d))
                    for g, x in fibre_chi_by_label(sp, c, d).items()
                },
            )
            for d in cols
        ]
        for c in rows
    ]
    return SpanMatrix(sp.group, rows, cols, entries)
