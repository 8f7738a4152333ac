"""Exact Betti numbers over Q and prime fields for integer chain complexes.

The engine is pure stdlib: sparse matrices are dicts of Python ints.

Ranks.  One kernel, `_eliminate`, does every elimination: sparse Gaussian
elimination with min-degree (Markowitz-style) pivoting on the units of
the ring.  A pivot of +-1 is a unit over Z and over every field, so each
matrix is first reduced once over Z (`SparseIntMatrix.unit_reduction`): m
is equivalent to I_u + R by unimodular row and column operations, and the
rank of m over Q or F_p is u plus the rank of the small residual R there.
The reduction is cached on the matrix, so every field's rank shares it.
Over F_p every nonzero entry is a unit, and the same kernel eliminates R
completely: once for F_p, and for Q modulo primes below 2^31 whose
product exceeds R's Hadamard bound (see `rank_over_q`).  Every rank is
exact.

Integral structure comes from a Smith-normal-form routine that first
eliminates unit pivots by row operations alone and finishes with gcd
pivoting.  `betti` runs it over the whole chain complex when its
`snf_cap`, the one torsion switch, is above 0: a cell paired by
a unit pivot of d_k splits off with its partner (Kaczynski, Mrozek and
Slusarek, "Homology computation by reduction of chain complexes", 1998),
so its row of d_{k+1} is dropped.  The SNF shares nothing with the unit
reduction and differs from it in structure, so `betti`'s SNF-versus-rank
cross-check compares two independent eliminations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import gcd, prod
from typing import TYPE_CHECKING

from .errors import CorruptComplex, InvalidParameter, SnfTooLarge

if TYPE_CHECKING:  # pragma: no cover
    from .complexes import OrientedChainComplex, SimplicialComplex

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The largest number of rows or columns of a matrix whose SNF is taken.
DEFAULT_SNF_CAP = 5000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for all n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> dict:
    """{p: e} with n the product of the p^e, primes ascending; {} for n = 1."""
    if n < 1:
        raise InvalidParameter(f"cannot factor {n}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class FieldSpec:
    """Either the rationals (p is None) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not (2 <= self.p <= 2**31) or not is_prime(self.p):
                raise InvalidParameter(f"{self.p} is not a prime <= 2^31")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def label(self) -> str:
        return "Q" if self.p is None else f"Fp:{self.p}"

    @classmethod
    def parse(cls, label: str) -> "FieldSpec":
        if label == "Q":
            return cls(None)
        if label.startswith("Fp:") and label[3:].isdecimal():
            return cls(int(label[3:]))
        raise InvalidParameter(f"unknown field label {label!r}")


RATIONALS = FieldSpec(None)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


class SparseIntMatrix:
    """Immutable sparse integer matrix, stored column-major."""

    __slots__ = ("rows", "cols", "_columns", "_reduction")

    def __init__(self, rows: int, cols: int, entries=None) -> None:
        self.rows = rows
        self.cols = cols
        columns = [None] * cols
        if entries:
            for (r, c), v in entries.items():
                if v == 0:
                    continue
                if not (0 <= r < rows and 0 <= c < cols):
                    raise InvalidParameter("entry out of range")
                if columns[c] is None:
                    columns[c] = {}
                columns[c][r] = v
        self._columns = columns
        self._reduction = None

    @classmethod
    def from_columns(cls, rows: int, cols: int, coldict) -> "SparseIntMatrix":
        m = cls(rows, cols)
        for c, col in coldict.items():
            filtered = {r: v for r, v in col.items() if v != 0}
            if filtered:
                m._columns[c] = filtered
        return m

    def column(self, j: int) -> dict:
        col = self._columns[j]
        return col if col is not None else {}

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self._columns if c)

    def iter_entries(self):
        for c, col in enumerate(self._columns):
            if col:
                for r, v in col.items():
                    yield r, c, v

    def unit_reduction(self) -> tuple:
        """(u, R) with self equivalent to I_u + R over Z; computed on first use."""
        if self._reduction is None:
            self._reduction = _eliminate(self)
        return self._reduction

    def compose_is_zero(self, other: "SparseIntMatrix") -> bool:
        """True iff self @ other is the zero matrix."""
        if self.cols != other.rows:
            raise InvalidParameter("shape mismatch in composition")
        for j in range(other.cols):
            acc = {}
            for r, v in other.column(j).items():
                for r2, v2 in self.column(r).items():
                    acc[r2] = acc.get(r2, 0) + v * v2
            if any(acc.values()):
                return False
        return True

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.iter_entries():
            out[r][c] = v
        return out

    def to_json_dict(self) -> dict:
        entries = sorted(((c, r, v) for r, c, v in self.iter_entries()))
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[r, c, v] for c, r, v in entries],
        }

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


@dataclass(frozen=True)
class ElementaryDivisors:
    """Nonzero Smith divisors d_1 | d_2 | ... | d_r of an integer matrix.

    `unit_columns` are the columns `smith_normal_form` paired by unit pivots
    using row operations alone; they take no part in comparisons.
    """

    divisors: tuple
    unit_columns: frozenset = field(default=frozenset(), compare=False, repr=False)

    @property
    def rank(self) -> int:
        return len(self.divisors)

    def rank_mod(self, p: int) -> int:
        return sum(1 for d in self.divisors if d % p != 0)

    def torsion(self) -> tuple:
        return tuple(d for d in self.divisors if d > 1)


def _pop_min_degree_column(heap, col_rows):
    """Lazy heap pop: returns an active column of currently-minimal degree."""
    while heap:
        deg, c = heapq.heappop(heap)
        current = col_rows.get(c)
        if current is None:
            continue
        if not current:
            del col_rows[c]
            continue
        if len(current) != deg:
            heapq.heappush(heap, (len(current), c))
            continue
        return c
    return None


def _eliminate(m: SparseIntMatrix, p: int = 0) -> tuple:
    """Eliminate the unit pivots of m over Z (p = 0) or F_p; return (pivots, R).

    The units are +-1 over Z and every nonzero entry over F_p.  Columns are
    taken in min-degree order, and each pivots on the shortest of its rows
    with a unit entry, the lowest index breaking ties.  With pivot v, row r2
    then loses row2[c] / v times the pivot row, an exact Schur-complement
    update; the pivot row and column drop out, which the column operations
    clearing the pivot row would do.  Over Z a column without a unit entry
    when it is taken stays in R, still updated by later pivots, so m is
    equivalent to I_pivots + R by unimodular row and column operations; R
    is the remaining rows and columns, renumbered densely.  Over F_p every
    column pivots or empties, so R is empty and `pivots` is the rank.
    """
    rows_map: dict = {}
    col_rows: dict = {}
    for r, c, v in m.iter_entries():
        if p:
            v %= p
        if v:
            rows_map.setdefault(r, {})[c] = v
            col_rows.setdefault(c, set()).add(r)
    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    pivots = 0
    while True:
        c = _pop_min_degree_column(heap, col_rows)
        if c is None:
            break
        unit_rows = col_rows[c] if p else [rr for rr in col_rows[c] if rows_map[rr][c] in (1, -1)]
        if not unit_rows:
            continue  # out of the heap for good, but still tracked for fill-in
        r = min(unit_rows, key=lambda rr: (len(rows_map[rr]), rr))
        pivot_row = rows_map.pop(r)
        v = pivot_row.pop(c)
        inv = pow(v, -1, p) if p else v  # +-1 is its own inverse
        others = col_rows.pop(c)
        others.discard(r)
        for cc in pivot_row:
            col_rows[cc].discard(r)
        # every column left in a row is tracked in col_rows: a column leaves
        # it only once it is pivoted or empty, and then no row refills it
        for r2 in sorted(others):
            row2 = rows_map[r2]
            f = row2.pop(c) * inv
            if p:
                f %= p  # keeps every product below p^2
            for cc, vv in pivot_row.items():
                nv = row2.get(cc, 0) - f * vv
                if p:
                    nv %= p
                if nv:
                    if cc not in row2:
                        col_rows[cc].add(r2)
                    row2[cc] = nv
                elif cc in row2:
                    del row2[cc]
                    col_rows[cc].discard(r2)
            if not row2:
                del rows_map[r2]
        pivots += 1
    columns: dict = {}
    for i, r in enumerate(sorted(rows_map)):
        for c, val in rows_map[r].items():
            columns.setdefault(c, {})[i] = val
    residual = SparseIntMatrix.from_columns(
        len(rows_map), len(columns), {j: columns[c] for j, c in enumerate(sorted(columns))}
    )
    return pivots, residual


def rank_mod_p(m: SparseIntMatrix, p: int) -> int:
    """Rank over F_p: the unit pivots over Z plus the residual's rank mod p."""
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    units, residual = m.unit_reduction()
    return units + _eliminate(residual, p)[0]


# The largest primes below 2^31, descending.  2^31 - 1 is prime; the list is
# extended, once per prime, only when a Hadamard bound outgrows it.
_COVERING_PRIMES = [2**31 - 1]


def _rank_over_q_modular(m: SparseIntMatrix) -> int:
    """Rank over Q as the largest rank of m modulo covering primes (see rank_over_q)."""
    row_squares: dict = {}
    col_squares: dict = {}
    for r, c, v in m.iter_entries():
        row_squares[r] = row_squares.get(r, 0) + v * v
        col_squares[c] = col_squares.get(c, 0) + v * v
    bound_sq = min(prod(row_squares.values()), prod(col_squares.values()))
    most = min(len(row_squares), len(col_squares))
    rank, covered, k = 0, 1, 0
    while covered <= bound_sq and rank < most:
        if k == len(_COVERING_PRIMES):
            q = _COVERING_PRIMES[-1] - 2
            while not is_prime(q):
                q -= 2
            _COVERING_PRIMES.append(q)
        p = _COVERING_PRIMES[k]
        rank = max(rank, _eliminate(m, p)[0])
        covered *= p * p
        k += 1
    return rank


def rank_over_q(m: SparseIntMatrix) -> int:
    """Exact rank over Q: the unit pivots of m plus the residual's largest rank mod p.

    The unit pivots count once and only the residual R is eliminated
    (rank_mod_p shares the reduction), by `_eliminate` modulo the covering
    primes: the largest primes below 2^31, taken in descending order until
    the product of their squares exceeds H^2.  H^2 is the smaller of two
    products of sums of squares: over R's nonzero rows, and over its
    nonzero columns.  By Hadamard's inequality, applied to the rows or to
    the columns of a minor, every minor of R is at most H in absolute
    value, since each factor left out is at least 1; so a tall or wide R
    needs few primes.  A nonzero r x r minor is therefore not divisible by
    all of the covering primes, and R has rank r modulo one of them; no
    rank mod p exceeds the rank over Q, so the largest is exact (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 5).  Primes stop early once the
    rank reaches the smaller of R's numbers of nonzero rows and nonzero
    columns.
    """
    units, residual = m.unit_reduction()
    return units + _rank_over_q_modular(residual)


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


def smith_normal_form(m: SparseIntMatrix, cap: int = DEFAULT_SNF_CAP, *, drop_rows=frozenset()) -> ElementaryDivisors:
    """Divisibility chain of m, with the rows in `drop_rows` left out.

    Phase one eliminates +-1 pivots by row operations alone: columns are
    taken in min-degree order, each pivots on its shortest row among its
    unit entries, and the pivot row and column drop out as a Schur-complement
    update (the column operations clearing the pivot row change nothing
    else).  A column with no unit entry when it is taken waits for phase
    two, which finishes whatever is left by classical gcd pivoting, with row
    and column operations.  The phase-one pivot columns are returned as
    `unit_columns`.

    Rows may be dropped only where that keeps the divisors: when m is d_{k+1}
    of a chain complex and `drop_rows` are the `unit_columns` of the SNF of
    d_k.  A unit pivot (a, b) of d_k taken by row operations splits the
    complex as C' + (Z -> Z), with the k-cell b paired to the new basis
    vector of C_{k-1} that d_k(b) spans.  In C', d_{k+1} is d_{k+1} without
    row b, and dd = 0 makes row b an integer combination of the others.  The
    cap applies to the shape of m, dropped rows included.
    """
    if m.rows > cap or m.cols > cap:
        raise SnfTooLarge(f"{m.rows}x{m.cols} exceeds SNF cap {cap}x{cap}")
    rows_map: dict = {}
    col_rows: dict = {}
    for r, c, v in m.iter_entries():
        if r not in drop_rows:
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
    unit_columns = []
    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    while True:
        c = _pop_min_degree_column(heap, col_rows)
        if c is None:
            break
        unit_rows = [rr for rr in col_rows[c] if rows_map[rr][c] in (1, -1)]
        if not unit_rows:
            continue  # out of the heap, left for phase two
        eliminate(min(unit_rows, key=lambda rr: (len(rows_map[rr]), rr)), c)
        unit_columns.append(c)

    # phase two: gcd pivoting on what is left
    heap = []
    while True:
        c = _pop_min_degree_column(heap, col_rows)
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
    return ElementaryDivisors(_divisor_chain(diagonal), frozenset(unit_columns))


@dataclass(frozen=True)
class BettiTable:
    """Per-field Betti sequences b_0..b_d with optional integral torsion; every rank is exact."""

    entries: tuple          # tuple of (FieldSpec, tuple of ints)
    torsion: tuple | None   # per degree, elementary divisors > 1 of H_k(Z), or None

    def fields(self):
        return tuple(f for f, _ in self.entries)

    def betti(self, field: FieldSpec) -> tuple:
        for f, b in self.entries:
            if f == field:
                return b
        raise KeyError(field.label())

    def total(self, field: FieldSpec) -> int:
        return sum(self.betti(field))

    def max_betti(self, field: FieldSpec) -> int:
        b = self.betti(field)
        return max(b) if b else 0

    def euler(self, field: FieldSpec) -> int:
        return sum((-1) ** i * v for i, v in enumerate(self.betti(field)))

    def to_json(self):
        out = []
        for f, b in self.entries:
            out.append(
                {
                    "field": f.label(),
                    "betti": list(b),
                    "torsion": [list(t) for t in self.torsion] if self.torsion is not None else None,
                    "certified": True,
                }
            )
        return out


def betti(chain: "OrientedChainComplex", fields, *, snf_cap: int = DEFAULT_SNF_CAP) -> BettiTable:
    """Exact Betti numbers of a chain complex over each requested field.

    b_k = rank C_k - rank d_k - rank d_{k+1}, every rank exact (see
    `rank_mod_p` and `rank_over_q`).  `snf_cap` is the one torsion switch.
    At 0 no Smith normal form is taken and no torsion is reported.  Above
    0, each boundary matrix with at most `snf_cap` rows and columns gets
    its SNF, and the Betti numbers are cross-derived from the elementary
    divisors wherever they exist; both derivations must agree or the
    complex is declared corrupt.  Torsion is reported when every matrix
    fits under the cap.  The SNF of d_{k+1} leaves out the rows of the
    k-cells that the SNF of d_k paired by unit pivots (see
    `smith_normal_form`); after a matrix over the cap nothing is left out.
    The Euler characteristic and, when Q is among the fields, the
    universal-coefficient inequalities b_k(F_p) >= b_k(Q) are checked too.
    """
    fields = tuple(fields)
    if not fields:
        raise InvalidParameter("need at least one field")
    chain.verify()
    ranks = tuple(chain.ranks)
    boundaries = tuple(chain.boundaries)
    d = len(ranks) - 1

    snf: list[ElementaryDivisors | None] = [None] * len(boundaries)
    if snf_cap:
        # the cells paired by unit pivots one degree down: their rows split off
        paired = frozenset()
        for k, mat in enumerate(boundaries):
            try:
                snf[k] = smith_normal_form(mat, cap=snf_cap, drop_rows=paired)
            except SnfTooLarge:
                paired = frozenset()
            else:
                paired = snf[k].unit_columns
    snf.append(ElementaryDivisors(()))  # d_{d+1} = 0

    entries = []
    for field in fields:
        if field.is_rationals:
            mat_rank = [rank_over_q(mat) for mat in boundaries]
        else:
            mat_rank = [rank_mod_p(mat, field.p) for mat in boundaries]
        mat_rank.append(0)  # rank of d_{d+1} = 0
        bs = tuple(ranks[k] - mat_rank[k] - mat_rank[k + 1] for k in range(d + 1))
        if any(b < 0 for b in bs):
            raise CorruptComplex(f"negative Betti number over {field.label()}: {bs}")
        # cross-check against the integral structure wherever SNF ran
        for k in range(d + 1):
            sk, sk1 = snf[k], snf[k + 1]
            if sk is None or sk1 is None:
                continue
            if field.is_rationals:
                b_snf = ranks[k] - sk.rank - sk1.rank
            else:
                b_snf = ranks[k] - sk.rank_mod(field.p) - sk1.rank_mod(field.p)
            if b_snf != bs[k]:
                raise CorruptComplex(
                    f"rank-derived b_{k}={bs[k]} disagrees with SNF-derived {b_snf} over {field.label()}"
                )
        entries.append((field, bs))

    chi = sum((-1) ** k * ranks[k] for k in range(d + 1))
    for field, bs in entries:
        if sum((-1) ** k * b for k, b in enumerate(bs)) != chi:
            raise CorruptComplex(f"Euler characteristic mismatch over {field.label()}")
    qrow = next((bs for f, bs in entries if f.is_rationals), None)
    if qrow is not None:
        for f, bs in entries:
            if not f.is_rationals and any(bp < bq for bp, bq in zip(bs, qrow)):
                raise CorruptComplex("b_k(F_p) < b_k(Q) violates universal coefficients")

    torsion = None
    if all(s is not None for s in snf):
        torsion = tuple(s.torsion() for s in snf[1:])
    return BettiTable(tuple(entries), torsion)


def relative_betti(chain: "OrientedChainComplex", sub: "SimplicialComplex", fields) -> BettiTable:
    """Betti numbers of the relative chain complex C_*(K)/C_*(L), without torsion.

    `chain` must be the chain complex of K and `sub` a subcomplex of K
    (simplices of `sub` must all be simplices of K, with the same labels).
    K may also be an orbit chain complex, whose labels are the orbits'
    least simplices, and L a subcomplex fixed pointwise by the group.
    """
    return betti(_relative_chain(chain, sub), fields, snf_cap=0)


def _relative_chain(
    chain: "OrientedChainComplex", sub: "SimplicialComplex"
) -> "OrientedChainComplex":
    """C_*(K)/C_*(L); the index maps it builds are freed before ranks are taken."""
    from .complexes import OrientedChainComplex  # local import to avoid a cycle

    sub_simplices = sub.simplex_set()
    keep: list[list[int]] = []
    index_maps: list[dict] = []
    for k, labels in enumerate(chain.basis_labels):
        kept = [j for j, s in enumerate(labels) if s not in sub_simplices]
        keep.append(kept)
        index_maps.append({j: i for i, j in enumerate(kept)})
    # labels are distinct, so every simplex of `sub` must have dropped exactly one
    dropped = sum(len(labels) - len(kept) for labels, kept in zip(chain.basis_labels, keep))
    if dropped != len(sub_simplices):
        known = {s for labels in chain.basis_labels for s in labels}
        stray = min(sub_simplices - known)
        raise InvalidParameter(f"{stray} is not a simplex of the ambient complex")
    new_ranks = tuple(len(kept) for kept in keep)
    new_boundaries = []
    for k in range(len(chain.boundaries)):
        mat = chain.boundaries[k]
        rows = new_ranks[k - 1] if k >= 1 else 0
        cols_out = {}
        if k >= 1:
            rmap = index_maps[k - 1]
            for new_j, old_j in enumerate(keep[k]):
                col = {}
                for r, v in mat.column(old_j).items():
                    if r in rmap:
                        col[rmap[r]] = v
                if col:
                    cols_out[new_j] = col
        new_boundaries.append(SparseIntMatrix.from_columns(rows, new_ranks[k], cols_out))
    return OrientedChainComplex(
        new_ranks,
        tuple(new_boundaries),
        tuple(tuple(chain.basis_labels[k][j] for j in keep[k]) for k in range(len(keep))),
    )
