import heapq
import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import octahedron, random_small_complex, rp2_minimal
from snf_oracle import annihilating_order, gcd_smith_normal_form
from test_acceptance import CORPUS_SCENARIOS
from sqh.complexes import (
    OrientedChainComplex,
    SimplicialComplex,
    barycentric_subdivision,
    chain_complex,
    full_subcomplex,
    polygon,
)
from sqh.errors import CorruptComplex, InvalidParameter
from sqh import homology
from sqh.actions import admissible_subdivision, make_admissible_and_quotient, orbit_chain_complex
from sqh.homology import (
    F2,
    F3,
    F5,
    RATIONALS,
    FieldSpec,
    SparseIntMatrix,
    betti,
    is_prime,
    prime_factors,
    rank_mod_p,
    rank_over_q,
    relative_betti,
    smith_normal_form,
)
from sqh.scenarios import build_model, builtin


def from_dense(rows):
    m, n = len(rows), len(rows[0]) if rows else 0
    entries = {(i, j): rows[i][j] for i in range(m) for j in range(n) if rows[i][j]}
    return SparseIntMatrix(m, n, entries)


def dense_rank_oracle(rows, p=None):
    """Plain dense Gaussian elimination over Fraction or F_p (test oracle)."""
    if not rows or not rows[0]:
        return 0
    a = [[Fraction(v) if p is None else v % p for v in row] for row in rows]
    m, n = len(a), len(a[0])
    rank = 0
    for col in range(n):
        piv = None
        for r in range(rank, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pv = a[rank][col]
        inv = Fraction(1) / pv if p is None else pow(pv, -1, p)
        for r in range(m):
            if r != rank and a[r][col] != 0:
                f = a[r][col] * inv
                for cidx in range(n):
                    a[r][cidx] = a[r][cidx] - f * a[rank][cidx]
                    if p is not None:
                        a[r][cidx] %= p
        rank += 1
        if rank == m:
            break
    return rank


def random_dense(rng, m, n, lo=-4, hi=4, density=0.6):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


def test_is_prime_basics():
    assert is_prime(2) and is_prime(3) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2**30)


def test_prime_factors():
    assert prime_factors(1) == {}
    assert prime_factors(2) == {2: 1}
    assert prime_factors(384) == {2: 7, 3: 1}
    assert prime_factors(7 * 49 * 13) == {7: 3, 13: 1}
    assert list(prime_factors(2 * 3 * 5 * 7 * 11)) == [2, 3, 5, 7, 11]
    with pytest.raises(InvalidParameter):
        prime_factors(0)


def test_rank_mod_p_examples():
    assert rank_mod_p(from_dense([[2]]), 2) == 0
    assert rank_mod_p(from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 7) == 3
    d1 = chain_complex(polygon(3)).boundaries[1]
    assert rank_mod_p(d1, 5) == 2


def test_rank_mod_p_rejects_composite():
    with pytest.raises(InvalidParameter):
        rank_mod_p(from_dense([[1]]), 6)


def test_rank_over_q_examples():
    assert rank_over_q(from_dense([[2, 0], [0, 3]])) == 2
    assert rank_over_q(SparseIntMatrix(3, 4, {})) == 0
    d2 = chain_complex(octahedron()).boundaries[2]
    assert rank_over_q(d2) == 7


def _largest_primes_below_2_31(k):
    out, q = [], 2**31 - 1
    while len(out) < k:
        if is_prime(q):
            out.append(q)
        q -= 2
    return out


def test_certified_rank_of_residuals_the_covering_primes_divide():
    # each nonzero minor that certifies the rank is divisible by the first
    # primes the certified rank tries, so it must take every prime its
    # Hadamard bound asks for, and strictly more than the bound
    p1, p2, p3 = _largest_primes_below_2_31(3)
    for rows in (
        [[p1 * p2]],
        [[p1, 0], [0, p1 * p2]],
        [[1, 0], [0, p1 * p2 * p3]],
        [[p1 * p2, 1], [p1 * p2, p3 + 1]],  # determinant p1 * p2 * p3
    ):
        m = from_dense(rows)
        assert homology._rank_over_q_modular(m) == dense_rank_oracle(rows) == len(rows)
        assert rank_over_q(m) == len(rows)


def test_ranks_against_dense_oracle():
    rng = random.Random(123)
    for _ in range(30):
        rows = random_dense(rng, rng.randint(1, 7), rng.randint(1, 7))
        m = from_dense(rows)
        assert rank_over_q(m) == dense_rank_oracle(rows)
        for p in (2, 3, 5):
            assert rank_mod_p(m, p) == dense_rank_oracle(rows, p)


def _count_prime_eliminations(monkeypatch) -> list:
    """The moduli of the `_eliminate` calls made from now on with a modulus."""
    calls = []
    original = homology._eliminate

    def counting(m, p=0, k=1):
        if p:
            calls.append(p)
        return original(m, p, k)

    monkeypatch.setattr(homology, "_eliminate", counting)
    return calls


def test_tall_rank_one_residual_takes_one_prime(monkeypatch):
    # 100 rows of 3s: no unit pivot, and a Hadamard bound of 9^100 asks for
    # six covering primes, but one column caps the rank at 1
    calls = _count_prime_eliminations(monkeypatch)
    rows = [[3]] * 100
    assert rank_over_q(from_dense(rows)) == dense_rank_oracle(rows) == 1
    assert len(calls) == 1


def test_tall_residual_primes_are_bounded_by_its_columns(monkeypatch):
    # 2,000 multiples of (2, 4, 6, 10): no unit entry, and rank 1 < 4 columns,
    # so the primes run until they cover the minors.  The rows' Hadamard
    # product asks for 318 primes, the columns' (below 10^22) for 2
    rng = random.Random(29)
    rows = [[k * v for v in (2, 4, 6, 10)] for k in (rng.choice((-3, -2, 2, 3)) for _ in range(2000))]
    calls = _count_prime_eliminations(monkeypatch)
    assert rank_over_q(from_dense(rows)) == 1
    assert len(calls) <= 2
    assert dense_rank_oracle(rows) == 1


def test_rank_mod_p_lower_bounds_rational_rank():
    rng = random.Random(17)
    for _ in range(20):
        rows = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6), lo=-9, hi=9)
        m = from_dense(rows)
        rq = rank_over_q(m)
        for p in (2, 3, 5, 7):
            assert rank_mod_p(m, p) <= rq


def test_snf_examples():
    assert smith_normal_form(from_dense([[2, 0], [0, 3]]), 6).divisors == (1, 6)
    assert smith_normal_form(from_dense([[1, 0], [0, 1]]), 1).divisors == (1, 1)
    d1 = chain_complex(polygon(4)).boundaries[1]
    assert smith_normal_form(d1, 1).divisors == (1, 1, 1)


def test_snf_known_torsion_cases():
    assert smith_normal_form(from_dense([[2, 4], [6, 8]]), 4).divisors == (2, 4)
    assert smith_normal_form(from_dense([[4, 0], [0, 6]]), 12).divisors == (2, 12)
    assert smith_normal_form(from_dense([[0, 0], [0, 0]]), 12).divisors == ()
    # any multiple of the largest divisor will do: more levels find nothing more
    assert smith_normal_form(from_dense([[4, 0], [0, 6]]), 2**5 * 3**2 * 7).divisors == (2, 12)


@pytest.mark.parametrize(
    "rows, order, message",
    [
        ([[4]], 2, "the levels mod 2\\^2 count 0 invariant factors, the rank over Q is 1"),
        ([[2, 0], [0, 9]], 6, "the levels mod 3\\^2 count 1 invariant factors, the rank over Q is 2"),
    ],
    ids=["exponent_too_small", "second_prime_too_small"],
)
def test_snf_order_that_does_not_annihilate_is_caught(rows, order, message):
    """A divisor past p^e vanishes modulo p^(e+1), so the levels miss it."""
    with pytest.raises(CorruptComplex, match=message):
        smith_normal_form(from_dense(rows), order)


def test_prime_outside_the_order_is_caught_by_the_rank_cross_check():
    """The levels only see the order's primes, so d_1 = (5) passes as (1) at
    order 2; betti's ranks over F_5 do not."""
    d1 = from_dense([[5]])
    assert smith_normal_form(d1, 2).divisors == (1,)
    chain = OrientedChainComplex((1, 1), (SparseIntMatrix(0, 1), d1), (((0,),), ((1,),)))
    assert betti(chain, [F5], order=5).torsion == ((5,), ())
    with pytest.raises(CorruptComplex, match="over Fp:5"):
        betti(chain, [F5], order=2)


def test_betti_takes_each_rank_once(monkeypatch):
    """The SNF and the Betti rows share one rank per matrix and field: over
    Q and F_5, the order's prime, the SNF's ranks are the ones betti reads."""
    calls = []
    for name in ("rank_over_q", "rank_mod_p"):
        original = getattr(homology, name)
        monkeypatch.setattr(
            homology, name, lambda m, *p, _f=original, _n=name: calls.append((_n, id(m)) + p) or _f(m, *p)
        )
    chain = _lens52_quotient_chain()
    table = betti(chain, [RATIONALS, F2, F3, F5], order=5)
    assert table.torsion == ((), (5,), (), ())
    n = len(chain.boundaries)
    assert len(calls) == len(set(calls)) == 4 * n
    assert sum(1 for c in calls if c[0] == "rank_over_q") == n


def test_snf_chain_and_rank_consistency():
    rng = random.Random(29)
    for _ in range(40):
        rows = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6), lo=-6, hi=6)
        m = from_dense(rows)
        want = gcd_smith_normal_form(m)
        ed = smith_normal_form(m, annihilating_order([want]))
        assert ed == want
        assert ed.rank == rank_over_q(m)
        for i in range(1, len(ed.divisors)):
            assert ed.divisors[i] % ed.divisors[i - 1] == 0
        for p in (2, 3):
            assert ed.rank_mod(p) == rank_mod_p(m, p)


def test_betti_octahedron():
    table = betti(chain_complex(octahedron()), [RATIONALS, F2, F3], order=1)
    for f in (RATIONALS, F2, F3):
        assert table.betti(f) == (1, 0, 1)
    assert table.torsion == ((), (), ())


def test_betti_rp2_fixture():
    table = betti(chain_complex(rp2_minimal()), [RATIONALS, F2, F3], order=2)
    assert table.betti(F2) == (1, 1, 1)
    assert table.betti(RATIONALS) == (1, 0, 0)
    assert table.betti(F3) == (1, 0, 0)
    assert table.torsion == ((), (2,), ())


def test_betti_without_order_reports_no_torsion():
    table = betti(chain_complex(rp2_minimal()), [F2])
    assert table.betti(F2) == (1, 1, 1)
    assert table.torsion is None


def test_betti_euler_identity_random():
    rng = random.Random(41)
    for _ in range(10):
        k = random_small_complex(rng)
        cc = chain_complex(k)
        chi = sum((-1) ** i * r for i, r in enumerate(cc.ranks))
        table = betti(cc, [RATIONALS, F2, F3, F5])
        for f in table.fields():
            assert table.euler(f) == chi
            assert all(bp >= bq for bp, bq in zip(table.betti(f), table.betti(RATIONALS)))


def test_betti_corrupt_complex_detected():
    cc = chain_complex(octahedron())
    bad = SparseIntMatrix(12, 8, {(0, 0): 1})  # a 2-cell with a single edge face
    from sqh.complexes import OrientedChainComplex

    broken = OrientedChainComplex(cc.ranks, (cc.boundaries[0], cc.boundaries[1], bad), cc.basis_labels)
    with pytest.raises(CorruptComplex):
        betti(broken, [F2])


def test_relative_betti_pair_octahedron_square():
    k = octahedron()
    square = full_subcomplex(k, {0, 1, 3, 4})
    table = relative_betti(chain_complex(k), square, [F2, RATIONALS])
    assert table.betti(F2) == (0, 0, 2)
    assert table.betti(RATIONALS) == (0, 0, 2)


def test_relative_betti_degenerate_pairs():
    k = octahedron()
    cc = chain_complex(k)
    assert relative_betti(cc, k, [F2]).betti(F2) == (0, 0, 0)
    from sqh.complexes import EMPTY_COMPLEX

    assert relative_betti(cc, EMPTY_COMPLEX, [F2]).betti(F2) == betti(cc, [F2]).betti(F2)


def test_relative_betti_rejects_non_subcomplex():
    k = octahedron()
    other = polygon(3)
    with pytest.raises(InvalidParameter):
        relative_betti(chain_complex(other), k, [F2])


def test_field_spec():
    assert FieldSpec.parse("Q") == RATIONALS
    assert FieldSpec.parse("Fp:7") == FieldSpec(7)
    assert FieldSpec(13).label() == "Fp:13"
    with pytest.raises(InvalidParameter):
        FieldSpec(9)
    with pytest.raises(InvalidParameter):
        FieldSpec.parse("GF(4)")


def test_betti_table_serialization():
    table = betti(chain_complex(rp2_minimal()), [RATIONALS, F2], order=2)
    rows = table.to_json()
    assert rows[0]["field"] == "Q"
    assert rows[1]["field"] == "Fp:2"
    assert rows[1]["betti"] == [1, 1, 1]
    assert rows[1]["torsion"] == [[], [2], []]
    assert rows[0]["certified"] is True


def test_sparse_matrix_json_sorted_by_column_then_row():
    m = from_dense([[0, 2], [3, 0]])
    blob = m.to_json_dict()
    assert blob["entries"] == [[1, 0, 3], [0, 1, 2]]


# -- the unit reduction shared by every field's rank -------------------------

def _normalize_int_row(row: dict) -> None:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in row:
            row[k] //= g


def _rows_and_columns(m):
    """(rows, column rows): m's entries by row, and the set of rows of each column."""
    rows_map: dict = {}
    col_rows: dict = {}
    for r, c, v in m.iter_entries():
        rows_map.setdefault(r, {})[c] = v
        col_rows.setdefault(c, set()).add(r)
    return rows_map, col_rows


def _rank_over_q_fraction_free(m) -> int:
    """Exact rational rank of m by fraction-free sparse elimination (test oracle).

    Rows are integer vectors defined up to scale; each update is
    row2 <- v*row2 - a*pivot followed by content removal, so all arithmetic
    stays in Z.  Unlike `rank_over_q`, it needs no Hadamard bound, so it
    stays fast on the large unreduced boundary matrices of the corpus.
    """
    rows_map, col_rows = _rows_and_columns(m)
    for row in rows_map.values():
        _normalize_int_row(row)
    heap = [(len(rs), c) for c, rs in col_rows.items()]
    heapq.heapify(heap)
    rank = 0
    while True:
        c = homology._pop_min_degree_column(heap, col_rows)
        if c is None:
            break
        r = min(col_rows[c], key=lambda rr: (len(rows_map[rr]), abs(rows_map[rr][c]), rr))
        pivot_row = rows_map.pop(r)
        v = pivot_row[c]
        for cc in pivot_row:
            col_rows[cc].discard(r)
        for r2 in sorted(col_rows.pop(c)):
            row2 = rows_map[r2]
            a = row2[c]
            for cc in row2:
                row2[cc] *= v
            for cc, vv in pivot_row.items():
                nv = row2.get(cc, 0) - a * vv
                if nv:
                    if cc not in row2 and cc in col_rows:
                        col_rows[cc].add(r2)
                    row2[cc] = nv
                elif cc in row2:
                    del row2[cc]
                    if cc in col_rows:
                        col_rows[cc].discard(r2)
            if row2:
                _normalize_int_row(row2)
            else:
                del rows_map[r2]
        rank += 1
    return rank


def _direct_ranks(m):
    """Ranks over Q, F_2, F_3, F_5 by eliminating m itself, without the reduction."""
    return (
        _rank_over_q_fraction_free(m),
        *(homology._eliminate(m, p)[0] for p in (2, 3, 5)),
    )


def _reduced_ranks(m):
    return (rank_over_q(m), *(rank_mod_p(m, p) for p in (2, 3, 5)))


def test_unit_reduction_examples():
    units, residual = from_dense([[1, 2], [3, 4]]).unit_reduction()
    assert units == 1 and residual.to_dense() == [[-2]]  # 4 - 3 * 2
    units, residual = from_dense([[2, 0], [0, 3]]).unit_reduction()
    assert units == 0 and sorted(map(sorted, residual.to_dense())) == [[0, 2], [0, 3]]
    assert SparseIntMatrix(3, 4, {}).unit_reduction()[0] == 0
    # the boundary of a 2-simplex: rank 1, all of it unit pivots
    assert from_dense([[-1, -1, 0], [1, 0, -1], [0, 1, 1]]).unit_reduction()[0] == 2


def _random_small_matrices():
    """200 seeded dense matrices of up to 9 x 9, entries in [-3, 3], of mixed density."""
    rng = random.Random(2024)
    for _ in range(200):
        yield random_dense(rng, rng.randint(1, 9), rng.randint(1, 9), lo=-3, hi=3,
                           density=rng.choice((0.2, 0.4, 0.7)))


def test_unit_reduction_ranks_against_dense_oracle():
    for rows in _random_small_matrices():
        m = from_dense(rows)
        want = (dense_rank_oracle(rows), *(dense_rank_oracle(rows, p) for p in (2, 3, 5)))
        assert _reduced_ranks(m) == want
        assert _direct_ranks(m) == want
        assert homology._rank_over_q_modular(m) == want[0]


def test_eliminate_over_fp_leaves_no_residual():
    """Over F_p every nonzero entry is a unit pivot: the count is the rank."""
    for rows in _random_small_matrices():
        for p in (2, 3, 5):
            rank, residual = homology._eliminate(from_dense(rows), p)
            assert (residual.rows, residual.cols) == (0, 0)
            assert rank == dense_rank_oracle(rows, p)


@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_unit_reduction_ranks_on_corpus_complexes(scenario):
    """Model, simplicial quotient and orbit complex: every boundary matrix."""
    action = build_model(scenario).action
    for cc in (
        chain_complex(action.complex),
        chain_complex(make_admissible_and_quotient(action).complex),
        orbit_chain_complex(admissible_subdivision(action)),
    ):
        for m in cc.boundaries:
            got = _reduced_ranks(m)
            assert got == _direct_ranks(m)
            if m.rows * m.cols <= 4000:
                rows = m.to_dense()
                assert got == (dense_rank_oracle(rows), *(dense_rank_oracle(rows, p) for p in (2, 3, 5)))


def _matrices(st):
    entries = st.sampled_from((0, 0, 0, -3, -2, -1, 1, 2, 3))
    return st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=8)
    )


def test_unit_reduction_property_matches_direct_elimination():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_matrices(hypothesis.strategies))
    def check(rows):
        m = from_dense(rows)
        units, residual = m.unit_reduction()
        assert units + homology._rank_over_q_modular(residual) == homology._rank_over_q_modular(m)
        for p in (2, 3, 5):
            assert units + homology._eliminate(residual, p)[0] == homology._eliminate(m, p)[0]

    check()


def test_snf_rank_mod_matches_rank_mod_p_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_matrices(hypothesis.strategies))
    def check(rows):
        m = from_dense(rows)
        want = gcd_smith_normal_form(m)
        ed = smith_normal_form(m, annihilating_order([want]))
        assert ed == want
        assert ed.rank == rank_over_q(m)
        for p in (2, 3, 5):
            assert ed.rank_mod(p) == rank_mod_p(m, p)

    check()


def test_unit_reduction_runs_once_per_matrix(monkeypatch):
    reduced = []
    original = homology._eliminate

    def counting(m, p=0, k=1):
        if not p:
            reduced.append(id(m))
        return original(m, p, k)

    monkeypatch.setattr(homology, "_eliminate", counting)
    cc = chain_complex(rp2_minimal())
    betti(cc, [RATIONALS, F2, F3, F5], order=2)
    betti(cc, [F5, F3])
    for m in cc.boundaries:
        rank_over_q(m)
        rank_mod_p(m, 7)
    assert sorted(reduced) == sorted(id(m) for m in cc.boundaries)


def _lens52_quotient_chain():
    return orbit_chain_complex(admissible_subdivision(build_model(builtin("lens", 5, 2)).action))


def test_corrupted_unit_reduction_is_caught(monkeypatch):
    original = homology._eliminate
    fields = builtin("lens", 5, 2).field_specs()

    def unsigned(m, p=0, k=1):  # every sign dropped from the Schur updates' input over Z
        if p:
            return original(m, p, k)
        columns = {j: {r: abs(v) for r, v in m.column(j).items()} for j in range(m.cols)}
        return original(SparseIntMatrix.from_columns(m.rows, m.cols, columns))

    monkeypatch.setattr(homology, "_eliminate", unsigned)
    with pytest.raises(CorruptComplex):
        betti(_lens52_quotient_chain(), fields, order=5)


def test_lost_unit_pivot_is_caught_by_snf_alone(monkeypatch):
    """A pivot the reduction loses lowers every field's rank alike, so the
    Betti numbers stay nonnegative and consistent with one another; only the
    Smith normal form sees it, since its levels eliminate each full matrix
    modulo p^(e+1) and never read the reduction."""
    original = homology._eliminate
    fields = builtin("lens", 5, 2).field_specs()

    def lossy(m, p=0, k=1):  # over Z only
        if p:
            return original(m, p, k)
        units, residual = original(m)
        return max(units - 1, 0), residual

    monkeypatch.setattr(homology, "_eliminate", lossy)
    wrong = betti(_lens52_quotient_chain(), fields)
    assert wrong.betti(RATIONALS) != (1, 0, 0, 1)
    with pytest.raises(CorruptComplex, match="SNF of d_1: the levels mod 5\\^2 count 1 invariant factors, the rank over Q is 0"):
        betti(_lens52_quotient_chain(), fields, order=5)


def test_dropped_pivot_at_a_level_is_caught(monkeypatch):
    """One pivot fewer at level 1, where H_1(L(5,2)) = Z/5 puts d_2's divisor 5:
    the levels no longer sum to the rank over Q."""
    original = homology._p_adic_levels
    fields = builtin("lens", 5, 2).field_specs()
    table = betti(_lens52_quotient_chain(), fields, order=5)
    assert table.torsion == ((), (5,), (), ())

    def dropping(m, p, e):
        levels = original(m, p, e)
        return levels[:1] + tuple(max(n - 1, 0) for n in levels[1:])

    monkeypatch.setattr(homology, "_p_adic_levels", dropping)
    with pytest.raises(CorruptComplex, match="SNF of d_2: the levels mod 5\\^2 count"):
        betti(_lens52_quotient_chain(), fields, order=5)


def test_pivot_moved_to_level_zero_is_caught(monkeypatch):
    """The same divisor 5 counted at level 0: the sum holds, and level 0 exceeds the rank mod 5."""
    original = homology._p_adic_levels

    def moving(m, p, e):
        levels = original(m, p, e)
        return (sum(levels),) + (0,) * e

    monkeypatch.setattr(homology, "_p_adic_levels", moving)
    with pytest.raises(CorruptComplex, match="SNF of d_2: level 0 mod 5\\^2 has 6 pivots, the rank mod 5 is 5"):
        betti(_lens52_quotient_chain(), builtin("lens", 5, 2).field_specs(), order=5)


# -- the SNF that betti takes, against the gcd oracle -----------------------

def _random_unimodular(rng, n):
    """(U, U^-1), dense: a product of random row negations and row additions."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:  # row i of U negated; column i of U^-1 likewise
            u[i] = [-v for v in u[i]]
            for row in inv:
                row[i] = -row[i]
        else:  # row j of U gains c times row i; column i of U^-1 loses c times column j
            c = rng.choice((-2, -1, 1, 2))
            u[j] = [a + c * b for a, b in zip(u[j], u[i])]
            for row in inv:
                row[i] -= c * row[j]
    return u, inv


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _rebased(cc, rng):
    """cc with every C_k re-based by a random unimodular U_k: d_k becomes U_{k-1}^-1 d_k U_k.

    dd = 0 and each matrix's elementary divisors are kept, while the entries
    stop being +-1, so the levels past the unit pivots have work to do."""
    bases = [_random_unimodular(rng, r) for r in cc.ranks]
    boundaries = [cc.boundaries[0]]
    for k in range(1, len(cc.ranks)):
        dense = _matmul(_matmul(bases[k - 1][1], cc.boundaries[k].to_dense()), bases[k][0])
        boundaries.append(from_dense(dense))
    return OrientedChainComplex(cc.ranks, tuple(boundaries), cc.basis_labels)


def _chained_snf(cc, order) -> list:
    """The elementary divisors `betti` finds for each boundary matrix of cc."""
    got = []
    original = homology.smith_normal_form

    def recording(m, *args, **kwargs):
        got.append(original(m, *args, **kwargs))
        return got[-1]

    homology.smith_normal_form = recording
    try:
        betti(cc, [F2], order=order)
    finally:
        homology.smith_normal_form = original
    return got


def _unchained_snf(cc) -> list:
    """The gcd oracle's elementary divisors of each boundary matrix of cc."""
    return [gcd_smith_normal_form(m) for m in cc.boundaries]


def test_chained_snf_matches_simplicial_oracle_on_rebased_complexes():
    """Re-basing keeps every matrix's divisors: the oracle's SNF of the
    simplicial matrices is the oracle for betti's SNF of the re-based ones,
    at the order the oracle's divisors call for."""
    rng = random.Random(8595)
    complexes = [octahedron(), rp2_minimal(), barycentric_subdivision(rp2_minimal()).complex]
    complexes += [random_small_complex(rng) for _ in range(200)]
    non_units = torsion = 0
    for k in complexes:
        cc = _rebased(chain_complex(k), rng)
        want = _unchained_snf(chain_complex(k))
        assert _chained_snf(cc, annihilating_order(want)) == want
        torsion += sum(len(ed.torsion()) for ed in want)
        non_units += sum(1 for m in cc.boundaries for _, _, v in m.iter_entries() if abs(v) > 1)
    assert torsion > 0 and non_units > 5000  # the levels past 0 ran, on 694 matrices


@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_chained_snf_matches_unchained_on_corpus_complexes(scenario):
    """The simplicial quotient and the orbit complex, every boundary matrix, at |G|."""
    action = build_model(scenario).action
    for cc in (
        chain_complex(make_admissible_and_quotient(action).complex),
        orbit_chain_complex(admissible_subdivision(action)),
    ):
        assert _chained_snf(cc, action.order) == _unchained_snf(cc)


def test_chained_snf_property_on_rebased_complexes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    facets = st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(facets, st.integers(0, 2**32))
    def check(facet_sets, seed):
        cc = chain_complex(SimplicialComplex(7, facet_sets))
        want = _unchained_snf(cc)
        assert _chained_snf(_rebased(cc, random.Random(seed)), annihilating_order(want)) == want

    check()
