"""Exact Betti numbers over Q and prime fields for integer chain complexes.

The engine is pure stdlib: sparse matrices are dicts of Python ints.

Ranks.  One kernel, `_eliminate`, does every elimination: sparse Gaussian
elimination with min-degree (Markowitz-style) pivoting on the units of
the ring, Z or Z/p^k.  A pivot of +-1 is a unit over Z and over every
field, so each matrix is first reduced once over Z
(`SparseIntMatrix.unit_reduction`): m is equivalent to I_u + R by
unimodular row and column operations, and the rank of m over Q or F_p is
u plus the rank of the small residual R there.
The reduction is cached on the matrix, so every field's rank shares it.
Over F_p every nonzero entry is a unit, and the same kernel eliminates R
completely: once for F_p, and for Q modulo primes below 2^31 whose
product exceeds R's Hadamard bound (see `rank_over_q`).  Every rank is
exact.

Integral structure comes from the same kernel, by p-adic levels (local
elimination: Dumas, Saunders and Villard, "On efficient sparse integer
matrix Smith normal form computations", J. Symbolic Computation 32,
2001).  `betti` is given an order that annihilates the torsion; for an
orbit complex of a sphere that is |G|, by the transfer.  For each prime p
of the order, with e its exponent, the full matrix is eliminated modulo
p^(e+1) on the entries prime to p; the residual is divisible by p, and
divided by p it is the next level's matrix, modulo p^e.  The pivots at
level a count the invariant factors of p-valuation a, and the levels over
the primes assemble the Smith divisors.  The levels run on each full
matrix and not on the cached unit reduction, so a pivot lost by the
reduction shows: the levels must sum to the rank over Q and level 0 must
be the rank mod p, or the complex is declared corrupt.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING

from .errors import CorruptComplex, InvalidParameter

if TYPE_CHECKING:  # pragma: no cover
    from .complexes import OrientedChainComplex, SimplicialComplex

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    """Nonzero Smith divisors d_1 | d_2 | ... | d_r of an integer matrix."""

    divisors: tuple

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


def _eliminate(m: SparseIntMatrix, p: int = 0, k: int = 1) -> tuple:
    """Eliminate the unit pivots of m over Z (p = 0) or modulo p^k; return (pivots, R).

    The units are +-1 over Z and the entries prime to p modulo p^k, every
    nonzero one for k = 1.  Columns are taken in min-degree order, and each
    pivots on the shortest of its rows with a unit entry, the lowest index
    breaking ties.  With pivot v, row r2 then loses row2[c] / v times the
    pivot row, an exact Schur-complement update; the pivot row and column
    drop out, which the column operations clearing the pivot row would do.
    A column without a unit entry when it is taken stays in R, still
    updated by later pivots, so m is equivalent to I_pivots + R by
    invertible row and column operations; R is the remaining rows and
    columns, renumbered densely.  Over Z a later pivot may leave a unit in
    such a column.  Modulo p^k it cannot: its entries are multiples of p,
    and so is every update of them, so all of R is divisible by p and
    `pivots` counts the invariant factors of m prime to p.  For k = 1, R is
    empty and `pivots` is the rank over F_p.
    """
    q = p**k
    rows_map: dict = {}
    col_rows: dict = {}
    for r, c, v in m.iter_entries():
        if p:
            v %= q
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
        if not p:
            unit_rows = [rr for rr in col_rows[c] if rows_map[rr][c] in (1, -1)]
        elif k == 1:
            unit_rows = col_rows[c]
        else:
            unit_rows = [rr for rr in col_rows[c] if rows_map[rr][c] % p]
        if not unit_rows:
            continue  # out of the heap for good, but still tracked for fill-in
        r = min(unit_rows, key=lambda rr: (len(rows_map[rr]), rr))
        pivot_row = rows_map.pop(r)
        v = pivot_row.pop(c)
        inv = pow(v, -1, q) if p else v  # +-1 is its own inverse
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
                f %= q  # keeps every product below q^2
            for cc, vv in pivot_row.items():
                nv = row2.get(cc, 0) - f * vv
                if p:
                    nv %= q
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


def _p_adic_levels(m: SparseIntMatrix, p: int, e: int) -> tuple:
    """(n_0, ..., n_e): the number of invariant factors of m of p-valuation a, for a <= e.

    Level a eliminates the units of its matrix modulo p^(e+1-a): level 0
    takes m itself, modulo p^(e+1), and each level's residual, divided by
    p, is the next level's matrix; once a residual is empty, the levels
    left count nothing.  Factors of valuation above e vanish modulo
    p^(e+1) and are not counted.
    """
    levels = [0] * (e + 1)
    for a in range(e + 1):
        levels[a], residual = _eliminate(m, p, e + 1 - a)
        if not residual.nnz:
            break
        m = SparseIntMatrix.from_columns(
            residual.rows,
            residual.cols,
            {j: {r: v // p for r, v in residual.column(j).items()} for j in range(residual.cols)},
        )
    return tuple(levels)


def _rank(m: SparseIntMatrix, p: int, ranks: dict) -> int:
    """m's rank over Q (p = 0) or F_p, taken once per `ranks` memo."""
    if p not in ranks:
        ranks[p] = rank_mod_p(m, p) if p else rank_over_q(m)
    return ranks[p]


def smith_normal_form(m: SparseIntMatrix, order: int, ranks: dict | None = None) -> ElementaryDivisors:
    """Divisibility chain of m, when `order` annihilates the torsion of m's cokernel.

    Every divisor then divides `order`, so its exponent at each prime p of
    `order` is at most e = v_p(order), and the p-adic levels 0..e
    (`_p_adic_levels`) count its factors by valuation.  The rank r comes
    from `rank_over_q`; the i-th divisor is the product over p of p to the
    i-th smallest of the r valuations at p.  Raises CorruptComplex, naming
    p, unless at each p the levels sum to r and level 0 equals
    `rank_mod_p(m, p)`: a factor above p^e, a pivot lost at some level,
    or one lost by the unit reduction that both ranks share.  `ranks`
    (0 for Q, else p, to m's rank there) shares those ranks with the
    caller: each is taken only if it is not there, and stored.
    """
    ranks = {} if ranks is None else ranks
    rank = _rank(m, 0, ranks)
    divisors = [1] * rank
    for p, e in prime_factors(order).items():
        levels = _p_adic_levels(m, p, e)
        if sum(levels) != rank:
            raise CorruptComplex(
                f"the levels mod {p}^{e + 1} count {sum(levels)} invariant factors, the rank over Q is {rank}"
            )
        rank_p = _rank(m, p, ranks)
        if levels[0] != rank_p:
            raise CorruptComplex(
                f"level 0 mod {p}^{e + 1} has {levels[0]} pivots, the rank mod {p} is {rank_p}"
            )
        i = levels[0]
        for a, count in enumerate(levels[1:], 1):
            for j in range(i, i + count):
                divisors[j] *= p**a
            i += count
    return ElementaryDivisors(tuple(divisors))


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


def betti(chain: "OrientedChainComplex", fields, *, order: int = 0) -> BettiTable:
    """Exact Betti numbers of a chain complex over each requested field.

    b_k = rank C_k - rank d_k - rank d_{k+1}, every rank exact (see
    `rank_mod_p` and `rank_over_q`) and taken once per matrix and field.
    `order` asks for torsion: at 0 no Smith normal form is taken and none
    is reported.  Above 0 it must annihilate the torsion of
    H_*(chain; Z), as |G| does for an orbit complex of a sphere; each
    boundary matrix gets its SNF (`smith_normal_form`), whose checks tie
    it to the ranks over Q and at the primes of `order`, and raise
    CorruptComplex naming the prime and the degree.  At each requested
    prime not dividing `order` the ranks must equal the SNF's, the rank
    over Q: torsion at such a prime is more than `order` annihilates.  The
    Euler characteristic and, when Q is among the fields, the
    universal-coefficient inequalities b_k(F_p) >= b_k(Q) are checked too.
    """
    fields = tuple(fields)
    if not fields:
        raise InvalidParameter("need at least one field")
    chain.verify()
    ranks = tuple(chain.ranks)
    boundaries = tuple(chain.boundaries)
    d = len(ranks) - 1
    memos = [{} for _ in boundaries]  # per matrix: 0 (Q) or p -> its rank there

    snf = None
    if order:
        snf = []
        for k, mat in enumerate(boundaries):
            try:
                snf.append(smith_normal_form(mat, order, memos[k]))
            except CorruptComplex as e:
                raise CorruptComplex(f"SNF of d_{k}: {e}") from None

    entries = []
    for field in fields:
        p = field.p or 0
        mat_rank = [_rank(mat, p, memo) for mat, memo in zip(boundaries, memos)]
        if snf is not None and p and order % p:
            snf_rank = [s.rank_mod(p) for s in snf]
            if snf_rank != mat_rank:
                raise CorruptComplex(
                    f"ranks of d_k over {field.label()} are {mat_rank}, the SNF gives {snf_rank}"
                )
        mat_rank.append(0)  # rank of d_{d+1} = 0
        bs = tuple(ranks[k] - mat_rank[k] - mat_rank[k + 1] for k in range(d + 1))
        if any(b < 0 for b in bs):
            raise CorruptComplex(f"negative Betti number over {field.label()}: {bs}")
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

    # H_k's torsion is that of the cokernel of d_{k+1}; d_{d+1} = 0
    torsion = None if snf is None else tuple(s.torsion() for s in snf[1:]) + ((),)
    return BettiTable(tuple(entries), torsion)


def relative_betti(chain: "OrientedChainComplex", sub: "SimplicialComplex", fields) -> BettiTable:
    """Betti numbers of the relative chain complex C_*(K)/C_*(L), without torsion.

    `chain` must be the chain complex of K and `sub` a subcomplex of K
    (simplices of `sub` must all be simplices of K, with the same labels).
    K may also be an orbit chain complex, whose labels are the orbits'
    least simplices, and L a subcomplex fixed pointwise by the group.
    """
    return betti(_relative_chain(chain, sub), fields)


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
