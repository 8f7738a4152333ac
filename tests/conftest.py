import importlib.util
import random
from pathlib import Path

from sqh.actions import sylow
from sqh.bounds import _least_cp_handle
from sqh.complexes import SimplicialComplex
from sqh.homology import prime_factors


def octahedron() -> SimplicialComplex:
    """Boundary of the 3-dimensional cross-polytope; +e_i = i, -e_i = 3 + i."""
    facets = [(a, b, c) for a in (0, 3) for b in (1, 4) for c in (2, 5)]
    return SimplicialComplex(6, facets)


def rp2_minimal() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane (test oracle)."""
    facets = [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5),
    ]
    return SimplicialComplex(6, facets)


def random_small_complex(rng: random.Random) -> SimplicialComplex:
    n = rng.randint(3, 7)
    n_facets = rng.randint(1, 8)
    facets = []
    for _ in range(n_facets):
        size = rng.randint(1, min(4, n))
        facets.append(rng.sample(range(n), size))
    return SimplicialComplex(n, facets)


def _perfbench_workloads():
    """perfbench/workloads.py, loaded from its file as it is."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def nonabelian_workload() -> list:
    """The benchmark's nonabelian scenarios, in their listed order."""
    return _perfbench_workloads().nonabelian_scenarios()


def workload_pass(workload: str, seed: int) -> list:
    """The scenarios of one benchmark pass of `workload` at `seed`, in pass order."""
    return _perfbench_workloads().scenarios(workload, seed)[0]


def subgroup_handles(action) -> list:
    """The group, its least C_p for each prime p dividing its order, and its Sylow subgroups."""
    full = action.full_subgroup()
    handles = [full]
    for p in prime_factors(action.order):
        handles += [_least_cp_handle(action, p), sylow(action, full, p)]
    return list(dict.fromkeys(handles))
