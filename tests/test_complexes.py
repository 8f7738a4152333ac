import itertools
import json
import random
import time

import pytest

from conftest import nonabelian_workload, octahedron, random_small_complex
from test_acceptance import CORPUS_SCENARIOS, corpus_model
from sqh.actions import _carried, close_generators, subdivided_quotient
from sqh.complexes import (
    EMPTY_COMPLEX,
    SimplicialComplex,
    barycentric_subdivision,
    chain_complex,
    euler_characteristic,
    full_subcomplex,
    join,
    polygon,
    subdivided_f_vector,
    subdivided_size,
    zero_sphere,
)
from sqh.errors import InvalidParameter, NeedsSubdivision
from sqh.homology import RATIONALS, betti
from sqh.scenarios import build_model


def brute_chain_counts(k: SimplicialComplex):
    """f-vector of the order complex of the face poset, counted directly."""
    memo = {}

    def ending_at(s):
        if s in memo:
            return memo[s]
        counts = [1]
        for size in range(1, len(s)):
            for t in itertools.combinations(s, size):
                sub = ending_at(t)
                while len(counts) < len(sub) + 1:
                    counts.append(0)
                for i, v in enumerate(sub):
                    counts[i + 1] += v
        memo[s] = counts
        return counts

    totals = []
    for level in k.simplices():
        for s in level:
            c = ending_at(s)
            while len(totals) < len(c):
                totals.append(0)
            for i, v in enumerate(c):
                totals[i] += v
    return tuple(totals)


def test_polygon_triangle():
    t = polygon(3)
    assert t.vertex_count == 3
    assert t.facets == ((0, 1), (0, 2), (1, 2))


def test_polygon_square_euler():
    s = polygon(4)
    assert s.vertex_count == 4
    assert len(s.facets) == 4
    assert euler_characteristic(s) == 0


def test_polygon_rejects_degenerate():
    with pytest.raises(InvalidParameter):
        polygon(2)


def test_zero_sphere():
    z = zero_sphere()
    assert z.vertex_count == 2
    assert z.facets == ((0,), (1,))
    assert euler_characteristic(z) == 2


def test_join_of_zero_spheres_is_square():
    sq = join(zero_sphere(), zero_sphere())
    assert sq.vertex_count == 4
    assert sq.facets == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert euler_characteristic(sq) == 0


def test_join_two_triangles_is_three_sphere():
    k = join(polygon(3), polygon(3))
    assert k.vertex_count == 6
    assert len(k.facets) == 9
    assert all(len(f) == 4 for f in k.facets)
    table = betti(chain_complex(k), [RATIONALS])
    assert table.betti(RATIONALS) == (1, 0, 0, 1)


def test_join_suspension_euler():
    s2 = join(zero_sphere(), polygon(4))
    assert euler_characteristic(s2) == 2


def test_join_with_empty_is_identity():
    k = polygon(5)
    assert join(k, EMPTY_COMPLEX) == k
    assert join(EMPTY_COMPLEX, k) == k


def test_join_euler_product_rule():
    rng = random.Random(7)
    for _ in range(12):
        k1 = random_small_complex(rng)
        k2 = random_small_complex(rng)
        c1, c2 = euler_characteristic(k1), euler_characteristic(k2)
        assert euler_characteristic(join(k1, k2)) == c1 + c2 - c1 * c2


def test_subdivision_triangle_boundary():
    sd = barycentric_subdivision(polygon(3))
    assert sd.complex.vertex_count == 6
    assert len(sd.complex.facets) == 6
    assert all(len(f) == 2 for f in sd.complex.facets)


def test_subdivision_octahedron_against_brute_chain_count():
    k = octahedron()
    sd = barycentric_subdivision(k)
    assert sd.complex.vertex_count == 26
    assert len(sd.complex.facets) == 48
    assert sd.complex.f_vector() == brute_chain_counts(k)


# rp(4)'s model is left out of the second level: its second subdivision has
# 2.9 million simplices and takes about 20 s to build
SECOND_LEVEL_MAX_SIMPLICES = 200_000


def test_subdivided_f_vector_matches_subdivision():
    rng = random.Random(12)
    models = {corpus_model(sc).action.complex for sc in CORPUS_SCENARIOS}
    for k in [*models, *(random_small_complex(rng) for _ in range(20))]:
        sd = barycentric_subdivision(k).complex
        assert subdivided_f_vector(k.f_vector()) == sd.f_vector()
        assert subdivided_size(k.f_vector(), 0) == sum(k.f_vector())
        assert subdivided_size(k.f_vector(), 1) == sum(sd.f_vector())
        forecast = subdivided_f_vector(sd.f_vector())
        assert subdivided_size(k.f_vector(), 2) == sum(forecast)
        if sum(forecast) <= SECOND_LEVEL_MAX_SIMPLICES:
            assert forecast == barycentric_subdivision(sd).complex.f_vector()


def test_subdivision_preserves_euler():
    rng = random.Random(11)
    for _ in range(20):
        k = random_small_complex(rng)
        sd = barycentric_subdivision(k)
        assert euler_characteristic(sd.complex) == euler_characteristic(k)


def test_subdivision_numbers_vertices_in_size_then_lex_order():
    rng = random.Random(5)
    for k in [octahedron(), join(polygon(4), zero_sphere()), *(random_small_complex(rng) for _ in range(30))]:
        sd = barycentric_subdivision(k)
        order = list(sd.vertex_simplices)
        assert order == sorted(k.simplex_set(), key=lambda s: (len(s), s))
        # so the vertex numbers along every flag ascend
        assert all(list(f) == sorted(f) for f in sd.complex.facets)


def _faces_by_brute_force(k: SimplicialComplex) -> list:
    """Test oracle: every nonempty subset of every facet, grouped by dimension and sorted."""
    seen = set()
    for f in k.facets:
        for size in range(1, len(f) + 1):
            seen.update(itertools.combinations(f, size))
    return [tuple(sorted(s for s in seen if len(s) == d + 1)) for d in range(k.dimension + 1)]


def test_face_lattice_is_sorted_only_for_simplices():
    def fresh():
        return join(join(polygon(5), octahedron()), SimplicialComplex(3, [(0, 1), (2,)]))

    k = fresh()
    f_vector = k.f_vector()
    assert k.simplex_set() == frozenset(itertools.chain.from_iterable(fresh().simplices()))
    # neither sorted the basis
    assert k._simplices is None
    assert k.simplices() == fresh().simplices() == _faces_by_brute_force(k)
    # the sets are dropped once sorted: the complex holds one copy of its lattice
    assert k._levels is None
    assert k.f_vector() == f_vector == tuple(map(len, k.simplices()))
    assert k.simplex_set() == fresh().simplex_set()


@pytest.fixture
def derived(monkeypatch):
    """Every complex built by `SimplicialComplex._from_canonical`, with the facets it was given."""
    made = []
    build = SimplicialComplex._from_canonical

    def recording(vertex_count, facets):
        facets = list(facets)
        k = build(vertex_count, facets)
        made.append((vertex_count, facets, k))
        return k

    monkeypatch.setattr(SimplicialComplex, "_from_canonical", staticmethod(recording))
    return made


def _derive(action, depth_two: bool) -> None:
    """sd(X) and the subdivided quotients sd(X)/G and, if asked, sd(sd(X))/G, where they are simplicial."""
    sd = barycentric_subdivision(action.complex)
    for a in (action, _carried(action, sd)) if depth_two else (action,):
        try:
            subdivided_quotient(a)
        except NeedsSubdivision:
            pass


def test_derived_complexes_equal_the_validating_constructors(derived):
    rng = random.Random(17)
    for sc in [*CORPUS_SCENARIOS, *nonabelian_workload()]:
        action = build_model(sc).action
        # the second subdivision of a 4-sphere has 460,800 facets
        _derive(action, depth_two=action.complex.dimension <= 3)
    for _ in range(30):
        k = random_small_complex(rng)
        _derive(close_generators(k, []), depth_two=True)
        _derive(close_generators(join(k, zero_sphere()), []), depth_two=False)
    assert len(derived) > 200
    for vertex_count, facets, k in derived:
        built = SimplicialComplex(vertex_count, facets)
        assert (k.vertex_count, k.facets, k.dimension) == (built.vertex_count, built.facets, built.dimension)
        assert k.f_vector() == built.f_vector()
        assert k.simplex_set() == built.simplex_set()
        assert k.simplices() == built.simplices() == _faces_by_brute_force(built)


def test_subdivision_vertex_map_is_bijection():
    k = octahedron()
    sd = barycentric_subdivision(k)
    assert len(sd.vertex_simplices) == sd.complex.vertex_count
    assert all(sd.vertex_of_simplex[s] == i for i, s in enumerate(sd.vertex_simplices))
    assert set(sd.vertex_simplices) == k.simplex_set()


def test_chain_complex_triangle():
    cc = chain_complex(polygon(3))
    assert cc.ranks == (3, 3)
    d1 = cc.boundaries[1]
    assert d1.rows == 3 and d1.cols == 3
    dense = d1.to_dense()
    for col in range(3):
        assert sorted(dense[r][col] for r in range(3)) == [-1, 0, 1]


def test_chain_complex_octahedron():
    cc = chain_complex(octahedron())  # checked for dd = 0 when built
    assert cc.ranks == (6, 12, 8)
    assert all(a.compose_is_zero(b) for a, b in zip(cc.boundaries, cc.boundaries[1:]))


def test_euler_characteristic_values():
    assert euler_characteristic(octahedron()) == 2
    assert euler_characteristic(polygon(7)) == 0
    assert euler_characteristic(EMPTY_COMPLEX) == 0


def test_full_subcomplex_equatorial_square():
    sq = full_subcomplex(octahedron(), {0, 1, 3, 4})
    assert len(sq.facets) == 4
    assert all(len(f) == 2 for f in sq.facets)
    assert euler_characteristic(sq) == 0


def test_full_subcomplex_empty_and_identity():
    k = octahedron()
    assert full_subcomplex(k, set()).facets == ()
    assert full_subcomplex(k, range(6)) == k
    with pytest.raises(InvalidParameter):
        full_subcomplex(k, {99})


def test_facet_maximality_and_dedup():
    k = SimplicialComplex(4, [(0, 1), (0, 1, 2), (2, 1, 0), (3,)])
    assert k.facets == ((0, 1, 2), (3,))


def _maximal_by_search(facets) -> tuple:
    """Test oracle: the maximal sets by a containment search on every set.

    Each set, largest first, is kept unless the sets kept so far that hold
    all of its vertices include one (a vertex index answers that).
    """
    by_size = sorted({tuple(sorted(set(f))) for f in facets if f}, key=len, reverse=True)
    vertex_index: dict = {}
    kept = []
    for t in by_size:
        candidates = None
        for v in t:
            hits = vertex_index.get(v, set())
            candidates = hits if candidates is None else candidates & hits
            if not candidates:
                break
        if candidates:
            continue
        kept.append(t)
        for v in t:
            vertex_index.setdefault(v, set()).add(t)
    return tuple(sorted(kept))


def _random_facet_list(rng: random.Random, pure: bool) -> tuple:
    """(vertex count, facets) as unsorted tuples.  About a third of the
    facets repeat an earlier one, shuffled; in a mixed list they are faces
    of an earlier one, so that containment occurs."""
    n = rng.randint(1, 9)
    size = rng.randint(1, n)
    facets = []
    for _ in range(rng.randint(0, 30)):
        if facets and rng.random() < 0.3:
            earlier = rng.choice(facets)
            facets.append(tuple(rng.sample(earlier, len(earlier) if pure else rng.randint(1, len(earlier)))))
        else:
            facets.append(tuple(rng.sample(range(n), size if pure else rng.randint(1, n))))
    return n, facets


def test_facets_match_the_containment_search_oracle():
    rng = random.Random(2024)
    for i in range(300):
        n, facets = _random_facet_list(rng, pure=i % 2 == 0)
        assert SimplicialComplex(n, facets).facets == _maximal_by_search(facets), (n, facets)


def _poly_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_pure_join_of_32000_facets_builds_in_seconds():
    # three 20-gons * S^0 * S^0: a pure list, which no containment search
    # should see (a search on every facet took over 7 s)
    start = time.perf_counter()
    k = join(join(join(join(polygon(20), polygon(20)), polygon(20)), zero_sphere()), zero_sphere())
    elapsed = time.perf_counter() - start
    assert (k.vertex_count, len(k.facets), k.dimension) == (64, 32_000, 7)
    assert elapsed < 3.0
    # the face lattice of a 7-dimensional complex: the f-polynomial of a join
    # is the product of its blocks', 1 + L t + L t^2 for an L-gon and 1 + 2t for S^0
    poly = [1]
    for block in ([1, 20, 20], [1, 20, 20], [1, 20, 20], [1, 2], [1, 2]):
        poly = _poly_mul(poly, block)
    assert k.f_vector() == tuple(poly[1:])
    assert sum(k.f_vector()) == 620_288


def test_out_of_range_facet_rejected():
    with pytest.raises(InvalidParameter):
        SimplicialComplex(2, [(0, 5)])


def test_json_round_trip_bit_exact():
    k = join(polygon(3), zero_sphere())
    blob = json.dumps(k.to_json_dict(), sort_keys=True)
    k2 = SimplicialComplex.from_json_dict(json.loads(blob))
    assert k2 == k
    assert json.dumps(k2.to_json_dict(), sort_keys=True) == blob


def test_facets_sorted_lexicographically():
    rng = random.Random(3)
    for _ in range(10):
        k = random_small_complex(rng)
        assert list(k.facets) == sorted(k.facets)
