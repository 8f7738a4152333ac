"""The orbit chain complex, checked against the simplicial quotient while both exist.

For an admissible action, `orbit_chain_complex` gives the cellular chains
of X/G.  Its Betti numbers (from ranks) and torsion must equal those of
the simplicial quotient that `make_admissible_and_quotient` builds, read
off the Smith normal form of that quotient's boundary matrices alone.
"""

import pytest

from conftest import octahedron, rp2_minimal
from test_acceptance import CORPUS_SCENARIOS
from sqh.actions import (
    admissible_subdivision,
    close_generators,
    is_admissible,
    make_admissible_and_quotient,
    orbit_betti,
    orbit_chain_complex,
    sylow,
)
from sqh.complexes import chain_complex, polygon
from sqh.errors import NeedsSubdivision
from sqh.homology import F2, F3, F5, RATIONALS, ElementaryDivisors, betti, prime_factors, smith_normal_form
from sqh.scenarios import (
    DEFAULT_FIELDS,
    _least_cp_handle,
    build_model,
    sweep_scenarios,
)

FIELDS = (RATIONALS, F2, F3, F5)


def _snf_homology(chain) -> tuple:
    """(Betti numbers per field, torsion per degree) from the elementary divisors alone."""
    divisors = [smith_normal_form(m, cap=max(m.rows, m.cols)) for m in chain.boundaries]
    divisors.append(ElementaryDivisors(()))
    degrees = range(len(chain.ranks))
    rows = []
    for f in FIELDS:
        def rank(k):
            return divisors[k].rank if f.is_rationals else divisors[k].rank_mod(f.p)

        rows.append((f, tuple(chain.ranks[k] - rank(k) - rank(k + 1) for k in degrees)))
    return tuple(rows), tuple(divisors[k + 1].torsion() for k in degrees)


def _assert_routes_agree(action):
    orbit = betti(orbit_chain_complex(admissible_subdivision(action)), FIELDS, snf_cap=10**9)
    quotient = make_admissible_and_quotient(action).complex
    assert (orbit.entries, orbit.torsion) == _snf_homology(chain_complex(quotient))


def _subgroup_actions(action):
    """The group, its least C_p for each prime p dividing its order, and its Sylow subgroups."""
    full = action.full_subgroup()
    handles = [full]
    for p in prime_factors(action.order):
        handles += [_least_cp_handle(action, p), sylow(action, full, p)]
    return [action.restrict(h) for h in dict.fromkeys(handles)]


@pytest.mark.parametrize("scenario", CORPUS_SCENARIOS, ids=lambda sc: sc.name)
def test_orbit_complex_matches_simplicial_quotient_on_corpus(scenario):
    for restricted in _subgroup_actions(build_model(scenario).action):
        _assert_routes_agree(restricted)


def test_orbit_complex_matches_simplicial_quotient_on_sweep():
    scenarios, _ = sweep_scenarios(6, 200, 7, DEFAULT_FIELDS, 200_000)
    for sc in scenarios[:60]:
        _assert_routes_agree(build_model(sc).action)


def test_orbit_complex_antipodal_octahedron_is_rp2():
    antipodal = close_generators(octahedron(), [(3, 4, 5, 0, 1, 2)])
    assert admissible_subdivision(antipodal) is antipodal
    cc = orbit_chain_complex(antipodal)
    assert cc.ranks == (3, 6, 4)
    got = betti(cc, FIELDS)
    want = betti(chain_complex(rp2_minimal()), FIELDS)
    assert (got.entries, got.torsion) == (want.entries, want.torsion)
    assert got.torsion == ((), (2,), ())
    assert orbit_betti(antipodal, F2) == (1, 1, 1)


def test_orbit_complex_circle_by_rotation():
    # C_5 rotating the pentagon freely: the quotient circle has one vertex and one edge
    rotation = close_generators(polygon(5), [(1, 2, 3, 4, 0)])
    cc = orbit_chain_complex(rotation)
    assert cc.basis_labels == (((0,),), ((0, 1),))
    assert cc.boundaries[1].nnz == 0
    assert orbit_betti(rotation, RATIONALS) == (1, 1)


def test_orbit_complex_rejects_non_admissible():
    reflection = close_generators(polygon(4), [(0, 3, 2, 1)])  # fixes vertices 0 and 2, no edge
    flip = close_generators(polygon(4), [(1, 0, 3, 2)])  # swaps the ends of edge (0,1)
    assert is_admissible(reflection)
    assert not is_admissible(flip)
    with pytest.raises(NeedsSubdivision):
        orbit_chain_complex(flip)
    sub = admissible_subdivision(flip)
    assert sub is not flip and is_admissible(sub)
    assert admissible_subdivision(flip) is sub
    assert orbit_betti(sub, RATIONALS) == (1, 0)  # the circle folded onto an interval
