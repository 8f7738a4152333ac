"""The gcd Smith normal form: the tests' oracle for the engine's torsion.

The engine takes the Smith normal form by p-adic levels of its one
elimination kernel, for the primes of an order that annihilates the
torsion (`sqh.homology.smith_normal_form`).  This oracle needs no order
and shares no elimination with the engine: it eliminates +-1 pivots by
row operations alone and finishes with classical gcd pivoting, with row
and column operations, so it finds every divisor at every prime.
"""

import heapq
from math import gcd

from sqh import homology
from sqh.homology import ElementaryDivisors, SparseIntMatrix


def _divisor_chain(values) -> tuple:
    """Normalize a diagonal multiset into the Smith divisibility chain."""
    ones = sum(1 for v in values if abs(v) == 1)
    rest = sorted(abs(v) for v in values if abs(v) > 1)
    changed = True
    while changed:
        changed = False
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                if rest[j] % rest[i]:
                    g = gcd(rest[i], rest[j])
                    rest[i], rest[j] = g, rest[i] * rest[j] // g
                    changed = True
        rest.sort()
    rest = [d for d in rest if d > 1]
    extra_ones = sum(1 for v in values if abs(v) > 1) - len(rest)
    return tuple([1] * (ones + extra_ones) + rest)


def gcd_smith_normal_form(m: SparseIntMatrix) -> ElementaryDivisors:
    """Divisibility chain of m, by unit pivots and then gcd pivoting.

    Phase one eliminates +-1 pivots by row operations alone: columns are
    taken in min-degree order, each pivots on its shortest row among its
    unit entries, and the pivot row and column drop out as a Schur-complement
    update (the column operations clearing the pivot row change nothing
    else).  A column with no unit entry when it is taken waits for phase
    two, which finishes whatever is left by classical gcd pivoting, with row
    and column operations.
    """
    rows_map: dict = {}
    col_rows: dict = {}
    for r, c, v in m.iter_entries():
        rows_map.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
    diagonal = []

    def row_op(r2, q, pivot_items):
        # row r2 -= q * pivot row
        row2 = rows_map[r2]
        for cc, vv in pivot_items:
            nv = row2.get(cc, 0) - q * vv
            if nv:
                if cc not in row2 and cc in col_rows:
                    col_rows[cc].add(r2)
                row2[cc] = nv
            else:
                if cc in row2:
                    del row2[cc]
                    if cc in col_rows:
                        col_rows[cc].discard(r2)
        if not row2:
            del rows_map[r2]

    def col_op(c2, q, c_piv):
        # column c2 -= q * pivot column
        for rr in list(col_rows.get(c_piv, ())):
            vv = rows_map[rr][c_piv]
            row = rows_map[rr]
            nv = row.get(c2, 0) - q * vv
            if nv:
                if c2 not in row and c2 in col_rows:
                    col_rows[c2].add(rr)
                row[c2] = nv
            else:
                if c2 in row:
                    del row[c2]
                    if c2 in col_rows:
                        col_rows[c2].discard(rr)

    def eliminate(r, c):
        # clear column c by row operations; it is then a singleton, so the
        # column operations clearing row r only touch row r: drop both
        v = rows_map[r][c]
        pivot_items = list(rows_map[r].items())
        for r2 in sorted(col_rows[c] - {r}):
            row_op(r2, rows_map[r2][c] // v, pivot_items)
        row_r = rows_map.pop(r)
        for cc in row_r:
            if cc in col_rows:
                col_rows[cc].discard(r)
        col_rows.pop(c, None)
        diagonal.append(v)

    # phase one: unit pivots, row operations only
    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    while True:
        c = homology._pop_min_degree_column(heap, col_rows)
        if c is None:
            break
        unit_rows = [rr for rr in col_rows[c] if rows_map[rr][c] in (1, -1)]
        if not unit_rows:
            continue  # out of the heap, left for phase two
        eliminate(min(unit_rows, key=lambda rr: (len(rows_map[rr]), rr)), c)

    # phase two: gcd pivoting on what is left
    heap = []
    while True:
        c = homology._pop_min_degree_column(heap, col_rows)
        if c is None:
            # phase one leaves columns off the heap, and the gcd dance can
            # move a pivot off its heap column, orphaning it
            live = {cc: rs for cc, rs in col_rows.items() if rs}
            if live:
                col_rows.clear()
                col_rows.update(live)
                heap = [(len(rs), cc) for cc, rs in col_rows.items()]
                heapq.heapify(heap)
                continue
            break
        r = min(
            col_rows[c],
            key=lambda rr: (abs(rows_map[rr][c]) != 1, abs(rows_map[rr][c]), len(rows_map[rr]), rr),
        )
        # gcd dance: shrink the pivot until it divides its column and row
        while True:
            v = rows_map[r][c]
            moved = False
            for r2 in sorted(col_rows[c] - {r}):
                a = rows_map[r2][c]
                if a % v:
                    row_op(r2, a // v, list(rows_map[r].items()))
                    r = r2
                    moved = True
                    break
            if moved:
                continue
            for c2 in sorted(set(rows_map[r]) - {c}):
                b = rows_map[r][c2]
                if b % v:
                    col_op(c2, b // v, c)
                    c = c2
                    moved = True
                    break
            if not moved:
                break
        eliminate(r, c)
    return ElementaryDivisors(_divisor_chain(diagonal))


def annihilating_order(divisors) -> int:
    """The largest divisor of each chain, multiplied: an order that annihilates their torsion."""
    order = 1
    for ed in divisors:
        if ed.divisors:
            order = order * ed.divisors[-1] // gcd(order, ed.divisors[-1])
    return order
