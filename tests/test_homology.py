import random
from fractions import Fraction

import pytest

from conftest import octahedron, random_small_complex, rp2_minimal
from test_acceptance import CORPUS_SCENARIOS
from sqh.complexes import (
    OrientedChainComplex,
    SimplicialComplex,
    barycentric_subdivision,
    chain_complex,
    full_subcomplex,
    polygon,
)
from sqh.errors import CorruptComplex, InvalidParameter, SnfTooLarge
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


def test_probabilistic_rank_matches_certified():
    rng = random.Random(5)
    for i in range(15):
        rows = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6))
        m = from_dense(rows)
        assert rank_over_q(m, certified=False, rng=random.Random(i)) == rank_over_q(m)


def test_rank_mod_p_lower_bounds_rational_rank():
    rng = random.Random(17)
    for _ in range(20):
        rows = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6), lo=-9, hi=9)
        m = from_dense(rows)
        rq = rank_over_q(m)
        for p in (2, 3, 5, 7):
            assert rank_mod_p(m, p) <= rq


def test_snf_examples():
    assert smith_normal_form(from_dense([[2, 0], [0, 3]])).divisors == (1, 6)
    assert smith_normal_form(from_dense([[1, 0], [0, 1]])).divisors == (1, 1)
    d1 = chain_complex(polygon(4)).boundaries[1]
    assert smith_normal_form(d1).divisors == (1, 1, 1)


def test_snf_known_torsion_cases():
    assert smith_normal_form(from_dense([[2, 4], [6, 8]])).divisors == (2, 4)
    assert smith_normal_form(from_dense([[4, 0], [0, 6]])).divisors == (2, 12)
    assert smith_normal_form(from_dense([[0, 0], [0, 0]])).divisors == ()


def test_snf_chain_and_rank_consistency():
    rng = random.Random(29)
    for _ in range(40):
        rows = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6), lo=-6, hi=6)
        m = from_dense(rows)
        ed = smith_normal_form(m)
        assert ed.rank == rank_over_q(m)
        for i in range(1, len(ed.divisors)):
            assert ed.divisors[i] % ed.divisors[i - 1] == 0
        for p in (2, 3):
            assert ed.rank_mod(p) == rank_mod_p(m, p)


def test_snf_cap():
    with pytest.raises(SnfTooLarge):
        smith_normal_form(SparseIntMatrix(10, 10, {}), cap=5)


def test_betti_octahedron():
    table = betti(chain_complex(octahedron()), [RATIONALS, F2, F3])
    for f in (RATIONALS, F2, F3):
        assert table.betti(f) == (1, 0, 1)
    assert table.torsion == ((), (), ())


def test_betti_rp2_fixture():
    table = betti(chain_complex(rp2_minimal()), [RATIONALS, F2, F3])
    assert table.betti(F2) == (1, 1, 1)
    assert table.betti(RATIONALS) == (1, 0, 0)
    assert table.betti(F3) == (1, 0, 0)
    assert table.torsion == ((), (2,), ())


def test_betti_without_snf_cap_falls_back():
    table = betti(chain_complex(rp2_minimal()), [F2], snf_cap=2)
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
    table = betti(chain_complex(rp2_minimal()), [RATIONALS, F2])
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

def _direct_ranks(m):
    """Ranks over Q, F_2, F_3, F_5 by eliminating m itself, without the reduction."""
    return (
        homology._rank_over_q_modular(m),
        *(homology._rank_mod_p_elimination(m, p) for p in (2, 3, 5)),
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


def test_unit_reduction_ranks_against_dense_oracle():
    rng = random.Random(2024)
    for _ in range(200):
        rows = random_dense(rng, rng.randint(1, 9), rng.randint(1, 9), lo=-3, hi=3,
                            density=rng.choice((0.2, 0.4, 0.7)))
        m = from_dense(rows)
        want = (dense_rank_oracle(rows), *(dense_rank_oracle(rows, p) for p in (2, 3, 5)))
        assert _reduced_ranks(m) == want
        assert _direct_ranks(m) == want


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
            assert units + homology._rank_mod_p_elimination(residual, p) == homology._rank_mod_p_elimination(m, p)

    check()


def test_snf_rank_mod_matches_rank_mod_p_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_matrices(hypothesis.strategies))
    def check(rows):
        m = from_dense(rows)
        ed = smith_normal_form(m)
        assert ed.rank == rank_over_q(m)
        for p in (2, 3, 5):
            assert ed.rank_mod(p) == rank_mod_p(m, p)

    check()


def test_unit_reduction_runs_once_per_matrix(monkeypatch):
    reduced = []
    original = homology._unit_reduction

    def counting(m):
        reduced.append(id(m))
        return original(m)

    monkeypatch.setattr(homology, "_unit_reduction", counting)
    cc = chain_complex(rp2_minimal())
    betti(cc, [RATIONALS, F2, F3, F5])
    betti(cc, [F5, F3], certified=False)
    for m in cc.boundaries:
        rank_over_q(m, certified=False)
        rank_mod_p(m, 7)
    assert sorted(reduced) == sorted(id(m) for m in cc.boundaries)


def _lens52_quotient_chain():
    return orbit_chain_complex(admissible_subdivision(build_model(builtin("lens", 5, 2)).action))


def test_corrupted_unit_reduction_is_caught(monkeypatch):
    original = homology._unit_reduction
    fields = builtin("lens", 5, 2).field_specs()

    def unsigned(m):  # every sign dropped from the Schur updates' input
        columns = {j: {r: abs(v) for r, v in m.column(j).items()} for j in range(m.cols)}
        return original(SparseIntMatrix.from_columns(m.rows, m.cols, columns))

    monkeypatch.setattr(homology, "_unit_reduction", unsigned)
    with pytest.raises(CorruptComplex):
        betti(_lens52_quotient_chain(), fields)


def test_lost_unit_pivot_is_caught_by_snf_alone(monkeypatch):
    """A pivot the reduction loses lowers every field's rank alike, so the
    Betti numbers stay nonnegative and consistent with one another; only the
    Smith normal form sees it, since its own elimination shares nothing with
    the reduction."""
    original = homology._unit_reduction
    fields = builtin("lens", 5, 2).field_specs()

    def lossy(m):
        units, residual = original(m)
        return max(units - 1, 0), residual

    monkeypatch.setattr(homology, "_unit_reduction", lossy)
    wrong = betti(_lens52_quotient_chain(), fields, with_torsion=False)
    assert wrong.betti(RATIONALS) != (1, 0, 0, 1)
    with pytest.raises(CorruptComplex, match="SNF"):
        betti(_lens52_quotient_chain(), fields)


# -- the chained SNF: rows of cells paired one degree down are dropped -------

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
    stop being +-1, so phase two of the SNF has work to do."""
    bases = [_random_unimodular(rng, r) for r in cc.ranks]
    boundaries = [cc.boundaries[0]]
    for k in range(1, len(cc.ranks)):
        dense = _matmul(_matmul(bases[k - 1][1], cc.boundaries[k].to_dense()), bases[k][0])
        boundaries.append(from_dense(dense))
    return OrientedChainComplex(cc.ranks, tuple(boundaries), cc.basis_labels)


def _chained_snf(cc) -> list:
    """The elementary divisors `betti` finds for each boundary matrix of cc."""
    got = []
    original = homology.smith_normal_form

    def recording(m, *args, **kwargs):
        got.append(original(m, *args, **kwargs))
        return got[-1]

    homology.smith_normal_form = recording
    try:
        betti(cc, [F2], snf_cap=10**6)
    finally:
        homology.smith_normal_form = original
    return got


def _unchained_snf(cc) -> list:
    return [smith_normal_form(m, cap=10**6) for m in cc.boundaries]


def test_snf_unit_columns_are_row_operation_pivots():
    # a 2-simplex: both unit pivots of d_1 are taken by row operations alone
    d1 = chain_complex(SimplicialComplex(3, [(0, 1, 2)])).boundaries[1]
    ed = smith_normal_form(d1)
    assert ed.divisors == (1, 1) and len(ed.unit_columns) == 2
    # no unit entry: the pivot comes from the gcd phase and is not recorded
    ed = smith_normal_form(from_dense([[2, 4], [6, 8]]))
    assert ed.divisors == (2, 4) and ed.unit_columns == frozenset()
    # dropping the rows of paired cells keeps d_2's divisors (dd = 0)
    cc = chain_complex(rp2_minimal())
    paired = smith_normal_form(cc.boundaries[1]).unit_columns
    assert len(paired) == 5  # a spanning tree of the 6 vertices
    assert smith_normal_form(cc.boundaries[2], drop_rows=paired) == smith_normal_form(cc.boundaries[2])
    # the cap is checked on the full shape
    with pytest.raises(SnfTooLarge):
        smith_normal_form(cc.boundaries[2], cap=14, drop_rows=paired)


def test_chained_snf_matches_simplicial_oracle_on_rebased_complexes():
    """Re-basing keeps every matrix's divisors: the SNF of the simplicial
    matrix is the oracle for the chained SNF of the re-based one."""
    rng = random.Random(8595)
    complexes = [octahedron(), rp2_minimal(), barycentric_subdivision(rp2_minimal()).complex]
    complexes += [random_small_complex(rng) for _ in range(200)]
    dropped = non_units = 0
    for k in complexes:
        cc = _rebased(chain_complex(k), rng)
        got = _chained_snf(cc)
        assert got == _unchained_snf(chain_complex(k))
        dropped += sum(len(ed.unit_columns) for ed in got[:-1])
        non_units += sum(1 for m in cc.boundaries for _, _, v in m.iter_entries() if abs(v) > 1)
    assert dropped > 500 and non_units > 5000  # both paths ran on 694 matrices


@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_chained_snf_matches_unchained_on_corpus_complexes(scenario):
    """The simplicial quotient and the orbit complex: every boundary matrix."""
    action = build_model(scenario).action
    for cc in (
        chain_complex(make_admissible_and_quotient(action).complex),
        orbit_chain_complex(admissible_subdivision(action)),
    ):
        assert _chained_snf(cc) == _unchained_snf(cc)


def test_chained_snf_property_on_rebased_complexes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    facets = st.lists(st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=8)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(facets, st.integers(0, 2**32))
    def check(facet_sets, seed):
        cc = chain_complex(SimplicialComplex(7, facet_sets))
        assert _chained_snf(_rebased(cc, random.Random(seed))) == _unchained_snf(cc)

    check()
