"""Scenario ingestion, builtin catalog, the run pipeline, and sweeps.

A scenario names a sphere model (character data, signed permutations, or
an explicit complex with generators), the coefficient fields, and the
checks to run.  Reports are deterministic: identical scenario and engine
version produce byte-identical JSON (timings are opt-in precisely so the
default report stays reproducible).
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass

from . import __version__
from .actions import (
    VertexAction,
    admissible_subdivision,
    best_abelian_normal_subgroup,
    close_generators,
    lefschetz_numbers,
    make_admissible_and_quotient,
    orbit_chain_complex,
    sylow,
)
from .bounds import (
    CheckResult,
    ScenarioObservation,
    abelian_bound,
    cyclic_chain_check,
    evaluate_all,
    smith_floyd_check,
    transfer_check,
)
from .complexes import SimplicialComplex, chain_complex, subdivided_f_vector
from .errors import CorruptComplex, InvalidParameter, ResourceCapExceeded
from .homology import F2, F3, F5, BettiTable, FieldSpec, RATIONALS, betti, prime_factors
from .models import (
    DEFAULT_MAX_FACTOR,
    AbelianCharacterData,
    SignedPermutation,
    character_join_model,
    cover_e1_total,
    signed_permutation_action,
)

DEFAULT_SIMPLEX_CAP = 2_000_000
DEFAULT_FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:5")
# A scenario's `snf_cap` is a torsion switch: 0 is off, any other value on.
# Its default and its integer type are kept from when it bounded the
# matrices whose Smith normal form was taken, so old scenario JSON reads.
DEFAULT_SNF_CAP = 5000
KNOWN_CHECKS = ("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "cover_e1", "evaluate_all")


def simplex_cap() -> int:
    """Post-subdivision simplex budget; SQH_MAX_SIMPLICES overrides."""
    raw = os.environ.get("SQH_MAX_SIMPLICES")
    if raw is None:
        return DEFAULT_SIMPLEX_CAP
    try:
        cap = int(raw)
    except ValueError as e:
        raise InvalidParameter(f"SQH_MAX_SIMPLICES={raw!r} is not an integer") from e
    if cap < 0:
        raise InvalidParameter(f"SQH_MAX_SIMPLICES={raw!r} is negative")
    return cap


@dataclass(frozen=True)
class Scenario:
    """One run's input.  Every rank is exact, so nothing is random: `seed`
    is a label echoed in the report and seeds nothing, and the JSON form
    carries `"certified": true`, the only value it accepts.  `snf_cap` > 0
    asks for torsion, at any size; 0 asks for none (see `run_scenario`)."""

    name: str
    space: dict                     # exactly one of the three variants
    fields: tuple                   # FieldSpec labels
    subdivisions: str | int = "auto"
    checks: tuple = ()
    seed: int = 0
    snf_cap: int = DEFAULT_SNF_CAP

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidParameter(f"field 'name' must be a string, got {self.name!r}")
        _check_field_labels(self.fields)
        variants = [k for k in ("character_join", "signed_permutation", "explicit") if k in self.space]
        if len(variants) != 1 or len(self.space) != 1:
            raise InvalidParameter("space must contain exactly one variant")
        for c in self.checks:
            if c not in KNOWN_CHECKS:
                raise InvalidParameter(f"unknown check {c!r}")
        if len(set(self.checks)) != len(self.checks):
            raise InvalidParameter(f"field 'checks' lists a check twice: {list(self.checks)}")
        if self.subdivisions != "auto" and (
            isinstance(self.subdivisions, bool)
            or not isinstance(self.subdivisions, int)
            or self.subdivisions < 0
        ):
            raise InvalidParameter(
                f"field 'subdivisions' must be \"auto\" or a nonnegative integer, got {self.subdivisions!r}"
            )
        if isinstance(self.snf_cap, bool) or not isinstance(self.snf_cap, int) or self.snf_cap < 0:
            raise InvalidParameter(f"field 'snf_cap' must be a nonnegative integer, got {self.snf_cap!r}")

    @property
    def kind(self) -> str:
        return next(iter(self.space))

    def field_specs(self) -> tuple:
        return tuple(FieldSpec.parse(label) for label in self.fields)

    def to_json_dict(self) -> dict:
        return {
            "schema": "scenario_v1",
            "name": self.name,
            "space": self.space,
            "fields": list(self.fields),
            "subdivisions": self.subdivisions,
            "checks": list(self.checks),
            "certified": True,
            "seed": self.seed,
            "snf_cap": self.snf_cap,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise InvalidParameter("scenario must be a JSON object")
        fields = _entry(data, "fields", "scenario")
        if not isinstance(fields, list) or not all(isinstance(f, str) for f in fields):
            raise InvalidParameter("field 'fields' must be a list of labels such as \"Q\" or \"Fp:2\"")
        space = _entry(data, "space", "scenario")
        if not isinstance(space, dict):
            raise InvalidParameter(
                "field 'space' must be an object holding one of character_join, signed_permutation, explicit"
            )
        checks = data.get("checks", [])
        if not isinstance(checks, list):
            raise InvalidParameter("field 'checks' must be a list of check names")
        if data.get("certified", True) is not True:
            raise InvalidParameter(
                f"field 'certified' must be true, as every rational rank is certified, got {data['certified']!r}"
            )
        return cls(
            name=_entry(data, "name", "scenario"),
            space=space,
            fields=tuple(fields),
            subdivisions=data.get("subdivisions", "auto"),
            checks=tuple(checks),
            seed=_integer(data.get("seed", 0), "seed"),
            snf_cap=_integer(data.get("snf_cap", DEFAULT_SNF_CAP), "snf_cap"),
        )


def _check_field_labels(fields) -> None:
    """InvalidParameter naming 'fields' unless the labels are nonempty, canonical and distinct."""
    if not fields:
        raise InvalidParameter("field 'fields' must be nonempty")
    for label in fields:
        try:
            canonical = FieldSpec.parse(label).label()
        except InvalidParameter as e:
            raise InvalidParameter(f"field 'fields': {e} (expected Q or Fp:<prime>)") from None
        # the report echoes the labels and names its rows by the canonical ones
        if label != canonical:
            raise InvalidParameter(f"field 'fields': write {label!r} as {canonical!r}")
    if len(set(fields)) != len(fields):
        raise InvalidParameter(f"field 'fields' lists a field twice: {list(fields)}")


def _entry(data, key: str, where: str):
    """data[key], or InvalidParameter naming the key when data is no object or lacks it."""
    if not isinstance(data, dict):
        raise InvalidParameter(f"{where} must be a JSON object")
    if key not in data:
        raise InvalidParameter(f"{where} is missing field {key!r}")
    return data[key]


def _integer(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameter(f"field {key!r} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ModelBundle:
    action: VertexAction
    ambient_n: int
    char_data: AbelianCharacterData | None
    kernel_order: int


def build_model(scenario: Scenario) -> ModelBundle:
    """The scenario's sphere model, its values checked as they come from JSON."""
    kind = scenario.kind
    payload = scenario.space[kind]
    if kind == "character_join":
        data = AbelianCharacterData(
            _integers(_entry(payload, "invariant_factors", kind), "invariant_factors"),
            _integer_lists(_entry(payload, "rotation_characters", kind), "rotation_characters"),
            _integer_lists(_entry(payload, "sign_characters", kind), "sign_characters"),
        )
        model = character_join_model(data)
        return ModelBundle(model.action, data.ambient_dimension, data, model.kernel_order)
    if kind == "signed_permutation":
        n = _integer(_entry(payload, "n", kind), "n")
        gens = []
        for i, g in enumerate(_list(_entry(payload, "generators", kind), "generators")):
            entries = {key: _integers(_entry(g, key, f"{kind} generator {i}"), key) for key in ("perm", "signs")}
            if len(entries["perm"]) != n:
                raise InvalidParameter(
                    f"field 'generators[{i}].perm' must have length n = {n}, got {len(entries['perm'])}"
                )
            gens.append(SignedPermutation.from_json_dict(entries))
        # the cross-polytope boundary has a nonempty simplex per sign-or-absent choice of each axis
        simplices, cap = 3**n - 1, simplex_cap()
        if simplices > cap:
            raise ResourceCapExceeded(f"signed_permutation model for n = {n} has {simplices} simplices (cap {cap})")
        action = signed_permutation_action(n, gens)
        return ModelBundle(action, n, None, 1)
    raw = _entry(payload, "complex", kind)
    complex_ = SimplicialComplex(
        _integer(_entry(raw, "vertex_count", f"{kind} complex"), "vertex_count"),
        _integer_lists(_entry(raw, "facets", f"{kind} complex"), "facets"),
    )
    # no sphere is empty, and S^-1 would have no dimension to be checked in
    if not complex_.facets:
        raise InvalidParameter("field 'facets' must hold at least one nonempty facet")
    # the group's vertex tuples are sized by vertex_count, which no simplex cap bounds
    used = {v for f in complex_.facets for v in f}
    if len(used) < complex_.vertex_count:
        unused = next(v for v in range(complex_.vertex_count) if v not in used)
        raise InvalidParameter(
            f"field 'vertex_count' is {complex_.vertex_count}, but vertex {unused} lies in no facet"
        )
    gens = _integer_lists(_entry(payload, "generators", kind), "generators")
    action = close_generators(complex_, gens)
    return ModelBundle(action, complex_.dimension + 1, None, 1)


def _list(value, key: str):
    if not isinstance(value, (list, tuple)):
        raise InvalidParameter(f"field {key!r} must be a list, got {value!r}")
    return value


def _integers(value, key: str) -> tuple:
    """A list of integers; a bad entry is named by its position, as in 'perm[1]'."""
    return tuple(_integer(x, f"{key}[{i}]") for i, x in enumerate(_list(value, key)))


def _integer_lists(value, key: str) -> tuple:
    """A list of integer lists, such as facets; a bad entry is named as in 'facets[0][1]'."""
    return tuple(_integers(x, f"{key}[{i}]") for i, x in enumerate(_list(value, key)))


def _least_cp_handle(action: VertexAction, p: int):
    for i in range(1, action.order):
        if action.element_order(i) == p:
            return action.subgroup(action.closure_indices({i}))
    return action.trivial_subgroup()


def _quotient_table(
    action: VertexAction, n: int, quotient: SimplicialComplex, scenario: Scenario, fields
) -> BettiTable:
    """H_*(X/G) over each field, by one of two routes.

    With torsion asked for (`snf_cap` > 0, a switch), the Betti numbers and
    the torsion both come from the orbit chain complex at the admissible
    subdivision, `orbit_chain_complex(admissible_subdivision(action))`,
    which the checks share, and the simplicial quotient is not read.  |G|
    annihilates that complex's torsion, by the transfer, so it is the order
    `betti` takes.  The Lefschetz oracles (`_check_lefschetz_oracles`) then
    check that table against the model and the group alone.  With `snf_cap` 0, as in the sweep, the Betti numbers
    come from the simplicial quotient and no torsion is taken; that route
    stays until the sweep moves to the orbit complex too (ROADMAP item 1).
    """
    if scenario.snf_cap == 0:
        return betti(chain_complex(quotient), fields)
    orbit = orbit_chain_complex(admissible_subdivision(action))
    table = betti(orbit, fields, order=action.order)
    _check_lefschetz_oracles(action, n, orbit.ranks, table)
    return table


def _check_lefschetz_oracles(action: VertexAction, n: int, cells, table: BettiTable) -> None:
    """CorruptComplex naming the first oracle that the quotient's table fails.

    X = S^{n-1} is a rational homology sphere, so H_*(X/G; Q) = H_*(X; Q)^G
    (Bredon, Introduction to Compact Transformation Groups, ch. III), and
    the Lefschetz numbers of the group (`lefschetz_numbers`) give its
    dimensions.  The oracles read the model and the group, no orbit data:

    - chi oracle: the sum of L(g) over G is |G| times the Euler
      characteristic of the orbit complex, the alternating sum of its
      `cells` per degree.  It catches merged or split orbits.
    - Q oracle: the Q row is (1, 0, ..., 0, t), where t, the dimension of
      the invariants in H_{n-1}(X; Q), is (1/|G|) times the sum of
      (-1)^{n-1} (L(g) - 1) over G; for n = 1 the row is the mean of L.
      It catches wrong orientation signs.
    - coprime-p oracle: over F_p with p not dividing |G| the row is the
      same, since the transfer makes H_*(X/G; F_p) = H_*(X; F_p)^G.
    """
    order = action.order
    lefschetz = lefschetz_numbers(action)
    total = sum(lefschetz)
    chi = sum((-1) ** k * c for k, c in enumerate(cells))
    if total != order * chi:
        raise CorruptComplex(
            f"chi oracle: the orbit complex has Euler characteristic {chi}, "
            f"the Lefschetz numbers give {total}/{order}"
        )
    if n == 1:
        want = (total // order,)
    else:
        # divisible once the chi oracle holds: it equals (-1)^{n-1} (chi - 1) |G|
        top = sum((-1) ** (n - 1) * (x - 1) for x in lefschetz)
        want = (1,) + (0,) * (n - 2) + (top // order,)
    for f, b in table.entries:
        if f.is_rationals:
            oracle = "Q oracle"
        elif order % f.p:
            oracle = "coprime-p oracle"
        else:
            continue
        if b != want:
            raise CorruptComplex(f"{oracle}: b = {b} over {f.label()}, the Lefschetz numbers give {want}")


def _check_sphere(n: int, table: BettiTable) -> None:
    """InvalidParameter naming 'complex' unless the table holds the Betti numbers of S^{n-1}."""
    sphere = (2,) if n == 1 else (1,) + (0,) * (n - 2) + (1,)
    for f, b in table.entries:
        if b != sphere:
            raise InvalidParameter(
                f"field 'complex' is not a sphere: b = {b} over {f.label()}, where S^{n - 1} has {sphere}"
            )


def _check_torsion_free(chain) -> None:
    """InvalidParameter naming 'complex' unless H_*(X; Z) is certified torsion-free.

    By the transfer |G| annihilates the torsion of H_*(X/G; Z) only when
    H_*(X; Z) has none, and torsion needs that order.  The certificate is
    the +-1 reduction that the model's ranks already took: when it leaves
    no residual, each boundary matrix is equivalent to I_u over Z.  Every
    complex with torsion fails it, an integral homology sphere in
    principle could too, though no sphere built or drawn here has.
    """
    for k, mat in enumerate(chain.boundaries):
        residual = mat.unit_reduction()[1]
        if residual.nnz:
            raise InvalidParameter(
                f"field 'complex' is not certified free of integral torsion, which torsion "
                f"(snf_cap > 0) needs: the +-1 reduction of d_{k} leaves a "
                f"{residual.rows} x {residual.cols} residual"
            )


def run_scenario(scenario: Scenario, with_timings: bool = False, budget: float | None = None) -> dict:
    """Execute the full pipeline and return the run report as a dict.

    The model is built, then `make_admissible_and_quotient` gives its
    simplicial quotient at the scenario's depth ("auto" or a forced count),
    for the report's `subdivisions`, `quotient_f_vector`, `simplices_after`
    and `facets_after`.  Past the first admissible depth the deepest sphere
    is never built: its quotient comes from the orbits one depth down, and
    `simplices_after` and `facets_after` count it exactly.  The simplex cap
    (`simplex_cap()`) bounds the forecast size of each depth's sphere, the
    last one included, and the size of a signed-permutation model before it
    is built.

    A run that asks for torsion (`snf_cap` > 0, a switch: no size is
    capped) takes its Betti numbers and torsion from the orbit chain
    complex at the admissible subdivision,
    `orbit_chain_complex(admissible_subdivision(action))`, which the checks
    share, with `action.order` as the order that annihilates its torsion;
    no rank of the simplicial quotient is taken.  The Lefschetz oracles
    check the table against the model and the group alone, and raise
    CorruptComplex naming the one that fails (see
    `_check_lefschetz_oracles`).  An `snf_cap` of 0 asks for no torsion:
    the Betti numbers come from the simplicial quotient, no SNF is taken,
    and no orbit complex is built for them (see `_quotient_table`).

    The model's Betti numbers are taken before its quotient; an `explicit`
    complex whose Betti numbers are not those of S^{n-1} over every field,
    or, when torsion is asked for, whose integral homology is not
    certified torsion-free (`_check_torsion_free`), raises
    InvalidParameter naming 'complex'.  The checks and
    `evaluate_all` follow the quotient.  A quotient that is not simplicial
    at a forced depth raises NeedsSubdivision, a depth past the cap
    ResourceCapExceeded.  A budget must be 0 or more seconds.
    """
    if budget is not None and not budget >= 0:
        raise InvalidParameter(f"budget must be 0 or more seconds, got {budget}")
    t_start = time.perf_counter()
    timings = {}

    def stage(name, t0):
        timings[name] = round(time.perf_counter() - t0, 6)
        if budget is not None and time.perf_counter() - t_start > budget:
            raise ResourceCapExceeded(f"scenario exceeded budget of {budget}s")

    t0 = time.perf_counter()
    bundle = build_model(scenario)
    action = bundle.action
    stage("build_model", t0)

    fields = scenario.field_specs()
    t0 = time.perf_counter()
    model_chain = chain_complex(action.complex)
    model_table = betti(model_chain, fields)
    if scenario.kind == "explicit":
        _check_sphere(bundle.ambient_n, model_table)
        if scenario.snf_cap:
            _check_torsion_free(model_chain)
    stage("model_betti", t0)

    t0 = time.perf_counter()
    res = make_admissible_and_quotient(action, scenario.subdivisions, simplex_cap())
    stage("quotient", t0)

    t0 = time.perf_counter()
    quotient_table = _quotient_table(action, bundle.ambient_n, res.complex, scenario, fields)
    stage("quotient_betti", t0)

    full = action.full_subgroup()
    check_results = []
    checks = tuple(c for c in KNOWN_CHECKS if c in scenario.checks)
    primes = list(prime_factors(full.order)) or [2]

    t0 = time.perf_counter()
    if "abelian_bound" in checks:
        bound = abelian_bound(bundle.ambient_n)
        for f in fields:
            total = quotient_table.total(f)
            check_results.append(
                CheckResult(
                    "abelian_bound",
                    (total <= bound) if full.is_abelian else True,
                    {"field": f.label(), "n": bundle.ambient_n, "applicable": full.is_abelian},
                    {"observed_total": total, "bound": bound},
                )
            )
    if "smith_floyd" in checks:
        for p in primes:
            check_results.append(smith_floyd_check(action, sylow(action, full, p), p))
    if "cyclic_chain" in checks:
        for p in primes:
            check_results.append(cyclic_chain_check(action, _least_cp_handle(action, p), p))
    if "transfer" in checks:
        for p in primes:
            check_results.append(transfer_check(action, p))
    cover = None
    if bundle.char_data is not None:
        cover = cover_e1_total(bundle.char_data)
    if "cover_e1" in checks:
        if cover is None:
            raise InvalidParameter("cover_e1 check needs a character_join scenario")
        cap_3n = 3 ** bundle.char_data.block_count - 1
        per_j = [
            {"J": list(j), "a": a, "b": b, "betti": list(bs), "total": sub}
            for j, a, b, bs, sub in cover.per_j
        ]
        for f in fields:
            total = quotient_table.total(f)
            check_results.append(
                CheckResult(
                    "cover_e1",
                    total <= cover.total <= cap_3n <= 3 ** bundle.ambient_n,
                    {"field": f.label(), "N": bundle.char_data.block_count},
                    {
                        "observed_total": total,
                        "cover_e1_total": cover.total,
                        "cap": cap_3n,
                        "per_J": per_j,
                    },
                )
            )
    stage("checks", t0)

    bound_report = None
    if "evaluate_all" in checks:
        t0 = time.perf_counter()
        normal = best_abelian_normal_subgroup(action)
        obs = ScenarioObservation(
            scenario_id=scenario.name,
            ambient_n=bundle.ambient_n,
            group_order=full.order,
            is_abelian=full.is_abelian,
            quotient_table=quotient_table,
            model_table=model_table,
            abelian_normal_order=normal.order,
            abelian_via_fallback=normal.via_fallback,
            block_count=bundle.char_data.block_count if bundle.char_data else None,
            cover_e1=cover.total if cover else None,
        )
        bound_report = evaluate_all(obs, checks=tuple(check_results))
        stage("evaluate_all", t0)

    failed = [c.name for c in check_results if not c.passed]
    if failed:
        from .errors import BoundViolation

        raise BoundViolation(
            f"checks failed on scenario {scenario.name}: {sorted(set(failed))}",
            dump={
                "scenario": scenario.to_json_dict(),
                "checks": [c.to_json() for c in check_results],
            },
        )

    report = {
        "schema": "run_report_v1",
        "engine_version": __version__,
        "scenario": scenario.to_json_dict(),
        "model": {
            "kind": scenario.kind,
            "ambient_n": bundle.ambient_n,
            "group_order": full.order,
            "kernel_order": bundle.kernel_order,
            "is_abelian": full.is_abelian,
            "simplices_before": sum(action.complex.f_vector()),
            "simplices_after": res.simplices_after,
            "facets_before": len(action.complex.facets),
            "facets_after": res.facets_after,
        },
        "subdivisions": res.subdivisions,
        "quotient_f_vector": list(res.complex.f_vector()),
        "betti": quotient_table.to_json(),
        "model_betti": model_table.to_json(),
        "checks": [c.to_json() for c in check_results],
        "bound_report": bound_report.to_json() if bound_report else None,
        "timing": timings if with_timings else None,
    }
    return report


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# builtin catalog

# name -> (parameter names, defaults of the trailing optional ones)
BUILTIN_PARAMS = {
    "rp": (("n",), (2,)),
    "lens": (("p", "q"), (1,)),
    "quaternion_q8": ((), ()),
    "sym3_on_s2": ((), ()),
    "dihedral_on_s1": (("m",), (5,)),
    "trivial_sphere": (("n",), (3,)),
}
BUILTIN_NAMES = tuple(BUILTIN_PARAMS)


def _builtin_params(name: str, params) -> tuple:
    """The builtin's parameters with defaults filled in; a wrong count is invalid input."""
    if name not in BUILTIN_PARAMS:
        raise InvalidParameter(f"unknown builtin {name!r}")
    names, defaults = BUILTIN_PARAMS[name]
    least = len(names) - len(defaults)
    params = tuple(int(p) for p in params)
    if not least <= len(params) <= len(names):
        usage = " ".join([name, *names[:least], *(f"[{n}]" for n in names[least:])])
        raise InvalidParameter(f"builtin {name} expects `{usage}`, got {len(params)} parameters")
    return params + defaults[len(params) - least:]


def builtin(name: str, *params) -> Scenario:
    """Resolve a named scenario from the builtin catalog."""
    params = _builtin_params(name, params)
    if name == "rp":
        (n,) = params
        if not 1 <= n <= 4:
            raise InvalidParameter("rp(n) supports 1 <= n <= 4")
        anti = SignedPermutation(tuple(range(1, n + 2)), (-1,) * (n + 1))
        return Scenario(
            name=f"rp({n})",
            space={"signed_permutation": {"n": n + 1, "generators": [anti.to_json_dict()]}},
            fields=("Q", "Fp:2", "Fp:3"),
            checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
            snf_cap=16384,
        )
    if name == "lens":
        p, q = params
        if not 2 <= p <= 13:
            raise InvalidParameter("lens(p,q) supports 2 <= p <= 13")
        if math.gcd(p, q) != 1:
            raise InvalidParameter("lens(p,q) needs gcd(p,q) = 1")
        div_primes = [f"Fp:{ell}" for ell in prime_factors(p)]
        coprime = next(ell for ell in (2, 3, 5) if p % ell != 0)
        fields = ("Q", *div_primes, f"Fp:{coprime}")
        return Scenario(
            name=f"lens({p},{q})",
            space={
                "character_join": AbelianCharacterData(
                    (p,), ((1,), (q % p,)), ()
                ).to_json_dict()
            },
            fields=fields,
            checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "cover_e1", "evaluate_all"),
            snf_cap=16384,
        )
    if name == "quaternion_q8":
        gen_i = SignedPermutation((2, 1, 4, 3), (-1, 1, -1, 1))
        gen_j = SignedPermutation((3, 4, 1, 2), (-1, 1, 1, -1))
        return Scenario(
            name="quaternion_q8",
            space={
                "signed_permutation": {
                    "n": 4,
                    "generators": [gen_i.to_json_dict(), gen_j.to_json_dict()],
                }
            },
            fields=("Q", "Fp:2", "Fp:3"),
            checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
            snf_cap=16384,
        )
    if name == "sym3_on_s2":
        swap = SignedPermutation((2, 1, 3), (1, 1, 1))
        cycle = SignedPermutation((2, 3, 1), (1, 1, 1))
        return Scenario(
            name="sym3_on_s2",
            space={
                "signed_permutation": {
                    "n": 3,
                    "generators": [swap.to_json_dict(), cycle.to_json_dict()],
                }
            },
            fields=("Q", "Fp:2", "Fp:3"),
            checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
            snf_cap=16384,
        )
    if name == "dihedral_on_s1":
        (m,) = params
        # the explicit route's cost grows about as m^3
        if not 3 <= m <= DEFAULT_MAX_FACTOR:
            raise InvalidParameter(f"dihedral_on_s1(m) supports 3 <= m <= {DEFAULT_MAX_FACTOR}")
        rotation = tuple((i + 1) % m for i in range(m))
        reflection = tuple((-i) % m for i in range(m))
        from .complexes import polygon

        return Scenario(
            name=f"dihedral_on_s1({m})",
            space={
                "explicit": {
                    "complex": polygon(m).to_json_dict(),
                    "generators": [list(rotation), list(reflection)],
                }
            },
            fields=("Q", "Fp:2", "Fp:3"),
            checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
        )
    if name == "trivial_sphere":
        (n,) = params
        if n < 1:
            raise InvalidParameter("trivial_sphere(n) needs n >= 1")
        return Scenario(
            name=f"trivial_sphere({n})",
            space={"signed_permutation": {"n": n, "generators": []}},
            fields=("Q", "Fp:2", "Fp:3", "Fp:5"),
            checks=("abelian_bound", "smith_floyd", "cyclic_chain", "transfer", "evaluate_all"),
            snf_cap=16384,
        )


# ---------------------------------------------------------------------------
# randomized abelian sweep

def _join_f_vector(data: AbelianCharacterData) -> tuple:
    # generating polynomial per block: polygon L -> 1 + L t + L t^2; S^0 -> 1 + 2t
    poly = [1]
    for j in range(data.rotation_count):
        length = data.polygon_length(j)
        poly = _poly_mul(poly, [1, length, length])
    for _ in range(data.sign_count):
        poly = _poly_mul(poly, [1, 2])
    return tuple(poly[1:])


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def predicted_model_size(data: AbelianCharacterData) -> int:
    """Simplex count of the model after its forecast subdivisions.

    One subdivision suffices when every rotation block's polygon is at
    least twice the character order (shift-agreement on flags); otherwise
    two are forecast.  The pipeline still verifies the preconditions at
    each level, so an optimistic forecast only costs a redraw.
    """
    f = _join_f_vector(data)
    needs_two = any(
        data.polygon_length(j) < 2 * data.rotation_order(j) and data.rotation_order(j) > 1
        for j in range(data.rotation_count)
    )
    f = subdivided_f_vector(f)
    if needs_two:
        f = subdivided_f_vector(f)
    return sum(f)


def random_character_data(rng: random.Random, n_max: int) -> AbelianCharacterData:
    """One draw of the documented sweep distribution (no size guard)."""
    t = rng.randint(1, 3)
    ms = tuple(rng.randint(2, 12) for _ in range(t))
    pairs = [
        (r, s)
        for r in range(n_max // 2 + 1)
        for s in range(n_max + 1)
        if r + s >= 1 and 2 * r + s <= n_max
    ]
    r, s = pairs[rng.randrange(len(pairs))]
    rot = tuple(tuple(rng.randrange(m) for m in ms) for _ in range(r))
    sgn = tuple(
        tuple(0 if m % 2 else rng.randint(0, 1) for m in ms) for _ in range(s)
    )
    return AbelianCharacterData(ms, rot, sgn)


def sweep_scenarios(n_max: int, samples: int, seed: int, fields, max_model_simplices: int):
    """Deterministic scenario stream for the sweep; oversized draws are redrawn.

    Every draw is forecast at 2 or more simplices, so a smaller guard would
    redraw forever and is rejected.
    """
    if max_model_simplices < 2:
        raise InvalidParameter(f"max_model_simplices must be at least 2, got {max_model_simplices}")
    rng = random.Random(seed)
    out = []
    rejected = 0
    while len(out) < samples:
        data = random_character_data(rng, n_max)
        if predicted_model_size(data) > max_model_simplices:
            rejected += 1
            continue
        sc = Scenario(
            name=f"sweep-{seed}-{len(out)}",
            space={"character_join": data.to_json_dict()},
            fields=tuple(fields),
            checks=("abelian_bound", "cover_e1", "evaluate_all"),
            seed=seed,
            snf_cap=0,  # sweeps skip torsion; ranks carry the assertions
        )
        out.append(sc)
    return out, rejected


def _sweep_one(sc: Scenario) -> dict:
    """The summary row of one sweep scenario; its full report is dropped here."""
    rep = run_scenario(sc)
    cover = next(c for c in rep["checks"] if c["name"] == "cover_e1")
    totals = {row["field"]: sum(row["betti"]) for row in rep["betti"]}
    return {
        "name": sc.name,
        "data": sc.space["character_join"],
        "n": rep["model"]["ambient_n"],
        "group_order": rep["model"]["group_order"],
        "effective_order": rep["model"]["group_order"],
        "subdivisions": rep["subdivisions"],
        "totals": totals,
        "cover_e1_total": cover["detail"]["cover_e1_total"],
        "slack": cover["detail"]["cover_e1_total"] / max(1, max(totals.values())),
    }


def sweep(
    n_max: int,
    samples: int,
    seed: int,
    fields=DEFAULT_FIELDS,
    jobs: int = 1,
    max_model_simplices: int = 200_000,
) -> dict:
    """Run the randomized abelian sweep and return the summary report.

    The field labels are checked up front, by the rules of `Scenario`, so a
    sweep of no samples refuses them too.  `jobs` bounds the worker
    processes, which are also no more than the scenarios or the CPUs.
    """
    _check_field_labels(fields)
    if not 1 <= n_max <= 6:
        raise InvalidParameter(f"sweep needs 1 <= n_max <= 6, got {n_max}")
    scenarios, rejected = sweep_scenarios(n_max, samples, seed, fields, max_model_simplices)
    # a process pool forks all of its workers at the first submit
    workers = min(jobs, len(scenarios), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, scenarios))
    else:
        rows = [_sweep_one(s) for s in scenarios]
    slacks = sorted(row["slack"] for row in rows)
    mid = len(slacks) // 2
    median = None
    if slacks:
        median = slacks[mid] if len(slacks) % 2 else (slacks[mid - 1] + slacks[mid]) / 2
    return {
        "schema": "sweep_report_v1",
        "engine_version": __version__,
        "n_max": n_max,
        "samples": samples,
        "seed": seed,
        "fields": list(fields),
        "max_model_simplices": max_model_simplices,
        "rejected_draws": rejected,
        "passed": len(rows),
        "slack": {
            "min": slacks[0] if slacks else None,
            "median": median,
            "max": slacks[-1] if slacks else None,
        },
        "scenarios": rows,
    }
