"""Scenario ingestion, builtin catalog, the run pipeline, and sweeps.

A scenario names a sphere model (character data, signed permutations, or
an explicit complex with generators), the coefficient fields, and the
checks to run.  Reports are deterministic: identical scenario and engine
version produce byte-identical JSON (timings are opt-in precisely so the
default report stays reproducible).
"""

from __future__ import annotations

import functools
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
    close_generators,
    lefschetz_numbers,
    make_admissible_and_quotient,
    model_betti,
    orbit_chain_complex,
    sphere_row,
)
from .bounds import CHECKS, BoundReport, CheckRun, evaluate_all, run_checks
from .complexes import SimplicialComplex, chain_complex, polygon, subdivided_size
from .errors import BoundViolation, CorruptComplex, InvalidParameter, ResourceCapExceeded
from .homology import BettiTable, FieldSpec, betti, prime_factors
from .models import (
    DEFAULT_MAX_BLOCKS,
    DEFAULT_MAX_FACTOR,
    AbelianCharacterData,
    SignedPermutation,
    SphereModel,
    character_join_model,
    join_f_vector,
    signed_permutation_action,
)

DEFAULT_SIMPLEX_CAP = 2_000_000
DEFAULT_FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:5")
# A scenario's `snf_cap` is a torsion switch: 0 is off, any other value on.
# Its default and its integer type are kept from when it bounded the
# matrices whose Smith normal form was taken, so old scenario JSON reads.
DEFAULT_SNF_CAP = 5000
# the checks of `bounds.CHECKS`, then the ledger, which `run_scenario` runs after them
KNOWN_CHECKS = (*CHECKS, "evaluate_all")
# every check but cover_e1, which needs a character_join model
GROUP_CHECKS = tuple(c for c in KNOWN_CHECKS if c != "cover_e1")


def simplex_cap() -> int:
    """The most simplices of any complex a run builds (see `run_scenario`); SQH_MAX_SIMPLICES overrides."""
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
    is an integer label echoed in the report and seeds nothing, and the
    JSON form carries `"certified": true`, the only value it accepts.  The
    quotient is taken at the least depth where it is simplicial, at most 2,
    so no depth is an input: the JSON form carries `"subdivisions": "auto"`,
    the only value it accepts.  `snf_cap` > 0 asks for torsion, at any
    size; 0 asks for none (see `run_scenario`)."""

    name: str
    space: dict                     # exactly one of the three variants
    fields: tuple                   # FieldSpec labels
    checks: tuple = ()
    seed: int = 0
    snf_cap: int = DEFAULT_SNF_CAP

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise InvalidParameter(f"field 'name' must be a string, got {self.name!r}")
        _check_field_labels(self.fields)
        _known_keys(self.space, tuple(_SPACE_KEYS), "space")
        if len(self.space) != 1:
            raise InvalidParameter("space must contain exactly one variant")
        for c in _list(self.checks, "checks"):
            if c not in KNOWN_CHECKS:
                raise InvalidParameter(f"unknown check {c!r}")
        if len(set(self.checks)) != len(self.checks):
            raise InvalidParameter(f"field 'checks' lists a check twice: {list(self.checks)}")
        if "cover_e1" in self.checks and self.kind != "character_join":
            raise InvalidParameter(f"field 'checks': cover_e1 needs a character_join space, not {self.kind}")
        _integer(self.seed, "seed")
        _at_least(self.snf_cap, "snf_cap", 0)

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
            "subdivisions": "auto",
            "checks": list(self.checks),
            "certified": True,
            "seed": self.seed,
            "snf_cap": self.snf_cap,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Scenario":
        """The scenario that `to_json_dict` writes; a key it does not write is refused by name.

        `schema`, `subdivisions` and `certified` may be left out, and each
        takes only the one value that `to_json_dict` writes.
        """
        _known_keys(data, _SCENARIO_KEYS, "scenario")
        if data.get("schema", "scenario_v1") != "scenario_v1":
            raise InvalidParameter(f"field 'schema' must be \"scenario_v1\", got {data['schema']!r}")
        if data.get("subdivisions", "auto") != "auto":
            raise InvalidParameter(
                "field 'subdivisions' must be \"auto\": the quotient is taken at the least depth "
                f"where it is simplicial, got {data['subdivisions']!r}"
            )
        fields = _list(_entry(data, "fields", "scenario"), "fields")
        space = _entry(data, "space", "scenario")
        if not isinstance(space, dict):
            raise InvalidParameter(
                "field 'space' must be an object holding one of character_join, signed_permutation, explicit"
            )
        checks = _list(data.get("checks", []), "checks")
        if data.get("certified", True) is not True:
            raise InvalidParameter(
                f"field 'certified' must be true, as every rational rank is certified, got {data['certified']!r}"
            )
        return cls(
            name=_entry(data, "name", "scenario"),
            space=space,
            fields=tuple(fields),
            checks=tuple(checks),
            seed=data.get("seed", 0),
            snf_cap=data.get("snf_cap", DEFAULT_SNF_CAP),
        )


def _check_field_labels(fields) -> None:
    """InvalidParameter naming 'fields' unless they are a nonempty list or tuple of canonical, distinct labels."""
    if not _list(fields, "fields"):
        raise InvalidParameter("field 'fields' must be nonempty")
    for label in fields:
        if not isinstance(label, str):
            raise InvalidParameter(f"field 'fields' must hold labels such as \"Q\" or \"Fp:2\", got {label!r}")
        try:
            canonical = FieldSpec.parse(label).label()
        except InvalidParameter as e:
            raise InvalidParameter(f"field 'fields': {e} (expected Q or Fp:<prime>)") from None
        # the report echoes the labels and names its rows by the canonical ones
        if label != canonical:
            raise InvalidParameter(f"field 'fields': write {label!r} as {canonical!r}")
    if len(set(fields)) != len(fields):
        raise InvalidParameter(f"field 'fields' lists a field twice: {list(fields)}")


# every key `Scenario.to_json_dict` writes, and those of each space variant's parts
_SCENARIO_KEYS = ("schema", "name", "space", "fields", "subdivisions", "checks", "certified", "seed", "snf_cap")
_SPACE_KEYS = {
    "character_join": ("invariant_factors", "rotation_characters", "sign_characters"),
    "signed_permutation": ("n", "generators"),
    "explicit": ("complex", "generators"),
}


def _known_keys(data, keys, where: str) -> None:
    """InvalidParameter unless data is an object whose keys are all among `keys`, naming the first that is not."""
    if not isinstance(data, dict):
        raise InvalidParameter(f"{where} must be a JSON object")
    for key in data:
        if key not in keys:
            raise InvalidParameter(f"{where} has unknown field {key!r}; it takes {', '.join(map(repr, keys))}")


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


def _at_least(value, key: str, least: int) -> int:
    """An integer, not a bool, of `least` or more, or InvalidParameter naming `key`."""
    if _integer(value, key) < least:
        raise InvalidParameter(f"field {key!r} must be {least} or more, got {value}")
    return value


def build_model(scenario: Scenario) -> SphereModel:
    """The scenario's sphere model, its values checked as they come from JSON.

    A key that the space, its `complex` or a generator does not take is
    refused by name, as `Scenario.from_json_dict` refuses the scenario's.
    The size of a character_join or signed_permutation model, a join of
    blocks, is forecast (`join_f_vector`) against `simplex_cap()` before
    any join is built.  An explicit complex's face lattice is counted
    against it as it is built (`SimplicialComplex.f_vector`), before the
    group is closed.
    """
    kind = scenario.kind
    payload = scenario.space[kind]
    _known_keys(payload, _SPACE_KEYS[kind], kind)
    if kind == "character_join":
        data = AbelianCharacterData(
            _integers(_entry(payload, "invariant_factors", kind), "invariant_factors"),
            _integer_lists(_entry(payload, "rotation_characters", kind), "rotation_characters"),
            _integer_lists(_entry(payload, "sign_characters", kind), "sign_characters"),
        )
        join_f_vector(data.block_lengths, simplex_cap())
        return character_join_model(data)
    if kind == "signed_permutation":
        n = _integer(_entry(payload, "n", kind), "n")
        gens = []
        for i, g in enumerate(_list(_entry(payload, "generators", kind), "generators")):
            _known_keys(g, ("perm", "signs"), f"{kind} generator {i}")
            entries = {key: _integers(_entry(g, key, f"{kind} generator {i}"), key) for key in ("perm", "signs")}
            if len(entries["perm"]) != n:
                raise InvalidParameter(
                    f"field 'generators[{i}].perm' must have length n = {n}, got {len(entries['perm'])}"
                )
            try:
                gens.append(SignedPermutation.from_json_dict(entries))
            except InvalidParameter as e:
                raise InvalidParameter(f"{kind} generator {i}: {e}") from None
        join_f_vector((2 for _ in range(n)), simplex_cap())  # n may be far past any cap, or an index
        return SphereModel(signed_permutation_action(n, gens))
    raw = _entry(payload, "complex", kind)
    _known_keys(raw, ("vertex_count", "facets"), f"{kind} complex")
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
    complex_.f_vector(simplex_cap())
    gens = _integer_lists(_entry(payload, "generators", kind), "generators")
    return SphereModel(close_generators(complex_, gens))


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


def _quotient_table(
    action: VertexAction, n: int, quotient: SimplicialComplex, scenario: Scenario, fields
) -> BettiTable:
    """H_*(X/G) over each field, from one of two chain complexes.

    With torsion asked for (`snf_cap` > 0, a switch), the Betti numbers and
    the torsion both come from the orbit chain complex at the admissible
    subdivision, `orbit_chain_complex(admissible_subdivision(action))`,
    which the checks share, and the simplicial quotient is not read.  |G|
    annihilates that complex's torsion, by the transfer, so it is the order
    `betti` takes.  With `snf_cap` 0, as in the sweep, the Betti numbers
    come from the simplicial quotient's chain complex and no torsion is
    taken (order 0); that route stays until the sweep moves to the orbit
    complex too (ROADMAP item 1).  Either way the Lefschetz oracles
    (`_check_lefschetz_oracles`) then check the table and the complex's
    cells against the model and the group alone.
    """
    if scenario.snf_cap:
        chain, order = orbit_chain_complex(admissible_subdivision(action)), action.order
    else:
        chain, order = chain_complex(quotient), 0
    table = betti(chain, fields, order=order)
    _check_lefschetz_oracles(action, n, chain.ranks, table)
    return table


def _check_lefschetz_oracles(action: VertexAction, n: int, cells, table: BettiTable) -> None:
    """CorruptComplex naming the first oracle that the quotient's table fails.

    X = S^{n-1} is a rational homology sphere, so H_*(X/G; Q) = H_*(X; Q)^G
    (Bredon, Introduction to Compact Transformation Groups, ch. III), and
    the Lefschetz numbers of the group (`lefschetz_numbers`) give its
    dimensions.  On a block model L(g) = 1 + (-1)^{n-1} det g, read off the
    element and the blocks, so no simplex is read and the Q oracle is the
    classical statement that H_{n-1}(X/G; Q) is Q when every det g is 1 and
    0 otherwise; on an explicit complex L comes from the simplex scan.  The
    oracles read the model and the group, no orbit data:

    - chi oracle: the sum of L(g) over G is |G| times the Euler
      characteristic of X/G, the alternating sum of the `cells` per degree
      of the complex the table was taken on, whose cells are orbits: the
      orbit complex, or the simplicial quotient of sd^k X.  It catches
      merged or split orbits.
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
    sphere = sphere_row(n)
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
    no residual, each boundary matrix is equivalent to I_u + 0 over Z.
    That reduction clears (see `homology.betti`): d_k skips the columns
    that d_{k+1}'s unit pivots make integral combinations of the others,
    so d_k is equivalent to I_u + R + 0, and an empty R still certifies
    that the full d_k is equivalent to I_u + 0.  Every complex with torsion
    fails it, an integral homology sphere in principle could too, though no
    sphere built or drawn here has.
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
    simplicial quotient at the least depth where it is one, 0, 1 or 2, for
    the report's `subdivisions`, `quotient_f_vector`, `simplices_after` and
    `facets_after`.  The sphere at that depth is never built: its quotient
    comes from the orbits one depth down, and `simplices_after` and
    `facets_after` count it exactly.  The simplex cap (`simplex_cap()`)
    bounds each complex the run builds, and ResourceCapExceeded names the
    one that would pass it: the model (a block model before its join is
    built, an explicit complex as its face lattice is), sd(X), which also
    bounds each starred Y′, or a depth's quotient.  sd²(X) is never built.

    A run that asks for torsion (`snf_cap` > 0, a switch: no size is
    capped) takes its Betti numbers and torsion from the orbit chain
    complex at the admissible subdivision, which the checks share; a run
    with `snf_cap` 0 takes its Betti numbers alone from the simplicial
    quotient (see `_quotient_table`).  On either route the Lefschetz
    oracles check the table against the model and the group alone, and
    raise CorruptComplex naming the one that fails.

    The model's Betti numbers (`model_betti`) are taken before its
    quotient.  A character_join or signed_permutation model is a join of
    polygons and vertex pairs, a sphere by construction, so its row is the
    sphere's over every field and nothing is computed for it; the tests
    check that row against the model's computed homology.  An `explicit`
    complex's sphericity is an input claim, so its homology is computed,
    and a complex whose Betti numbers are not those of S^{n-1} over every
    field, or, when torsion is asked for, whose integral homology is not
    certified torsion-free (`_check_torsion_free`), raises
    InvalidParameter naming 'complex'.

    This function is the one check of `budget`: None for none, else an int
    or float of 0 or more seconds, not a bool or NaN, or InvalidParameter
    naming 'budget' before the model is built.  The scenario's own fields
    are checked by `Scenario` and `build_model`.

    The named checks follow the quotient, from the one table
    `bounds.CHECKS` (`run_checks`), on the run's `CheckRun`.  When the
    scenario names `evaluate_all`, the ledger reads that `CheckRun` and the
    CheckResults last.  With `with_timings`, the report's `timing` holds
    each stage in run order: build_model, model_betti, quotient,
    quotient_betti, checks, and evaluate_all when it runs.  When a check
    or a hard `evaluate_all` row fails, this raises the run's one
    BoundViolation, naming them.  Its dump is always {"scenario", "checks",
    "bound_report"}: the scenario's JSON, which `Scenario.from_json_dict`
    reads back to replay the run, the CheckResults, and the BoundReport
    (None unless `evaluate_all` is named).
    """
    if budget is not None and (isinstance(budget, bool) or not isinstance(budget, (int, float)) or not budget >= 0):
        raise InvalidParameter(f"field 'budget' must be 0 or more seconds, got {budget!r}")
    t_start = time.perf_counter()
    timings = {}

    def stage(name, t0):
        timings[name] = round(time.perf_counter() - t0, 6)
        if budget is not None and time.perf_counter() - t_start > budget:
            raise ResourceCapExceeded(f"scenario exceeded budget of {budget}s")

    t0 = time.perf_counter()
    bundle = build_model(scenario)
    action = bundle.action
    n = action.complex.dimension + 1  # the model is S^{n-1}
    stage("build_model", t0)

    fields = scenario.field_specs()
    t0 = time.perf_counter()
    model_table = model_betti(action, fields)
    if scenario.kind == "explicit":
        _check_sphere(n, model_table)
        if scenario.snf_cap:
            _check_torsion_free(chain_complex(action.complex))
    stage("model_betti", t0)

    t0 = time.perf_counter()
    res = make_admissible_and_quotient(action, simplex_cap())
    stage("quotient", t0)

    t0 = time.perf_counter()
    quotient_table = _quotient_table(action, n, res.complex, scenario, fields)
    stage("quotient_betti", t0)

    run = CheckRun(scenario.name, action, quotient_table, model_table, bundle.char_data)
    t0 = time.perf_counter()
    check_results = run_checks(run, scenario.checks)
    stage("checks", t0)
    bound_report = None
    if "evaluate_all" in scenario.checks:
        t0 = time.perf_counter()
        bound_report = evaluate_all(run, check_results)
        stage("evaluate_all", t0)
    ledger_json = bound_report.to_json() if bound_report else None
    checks_json = [c.to_json() for c in check_results]
    failures = (bound_report or BoundReport(scenario.name, (), check_results)).failures
    if failures:
        raise BoundViolation(
            f"verified inequality failed on scenario {scenario.name}: {failures}",
            dump={"scenario": scenario.to_json_dict(), "checks": checks_json, "bound_report": ledger_json},
        )

    report = {
        "schema": "run_report_v1",
        "engine_version": __version__,
        "scenario": scenario.to_json_dict(),
        "model": {
            "kind": scenario.kind,
            "ambient_n": n,
            "group_order": run.full.order,
            "kernel_order": bundle.kernel_order,
            "is_abelian": run.full.is_abelian,
            "simplices_before": sum(action.complex.f_vector()),
            "simplices_after": res.simplices_after,
            "facets_before": len(action.complex.facets),
            "facets_after": res.facets_after,
        },
        "subdivisions": res.subdivisions,
        "quotient_f_vector": list(res.complex.f_vector()),
        "betti": quotient_table.to_json(),
        "model_betti": model_table.to_json(),
        "checks": checks_json,
        "bound_report": ledger_json,
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
    """The builtin's parameters with defaults filled in; a wrong count or a non-integer is invalid input."""
    if name not in BUILTIN_PARAMS:
        raise InvalidParameter(f"unknown builtin {name!r}")
    names, defaults = BUILTIN_PARAMS[name]
    least = len(names) - len(defaults)
    if not least <= len(params) <= len(names):
        usage = " ".join([name, *names[:least], *(f"[{n}]" for n in names[least:])])
        raise InvalidParameter(f"builtin {name} expects `{usage}`, got {len(params)} parameters")
    return tuple(_integer(p, key) for key, p in zip(names, params)) + defaults[len(params) - least:]


def _signed_space(n: int, generators) -> dict:
    """The signed_permutation space on n coordinates with these SignedPermutation generators."""
    return {"signed_permutation": {"n": n, "generators": [g.to_json_dict() for g in generators]}}


def builtin(name: str, *params) -> Scenario:
    """Resolve a named scenario from the builtin catalog.

    Each builtin checks its own parameters and sets its space, and the
    fields, checks and `snf_cap` where they differ from the common ones.
    """
    params = _builtin_params(name, params)
    fields = ("Q", "Fp:2", "Fp:3")
    checks = GROUP_CHECKS
    snf_cap = 16384
    if name == "rp":
        (n,) = params
        if not 1 <= n <= 4:
            raise InvalidParameter("rp(n) supports 1 <= n <= 4")
        label = f"rp({n})"
        space = _signed_space(n + 1, [SignedPermutation(tuple(range(1, n + 2)), (-1,) * (n + 1))])
    elif name == "lens":
        p, q = params
        if not 2 <= p <= 13:
            raise InvalidParameter("lens(p,q) supports 2 <= p <= 13")
        if math.gcd(p, q) != 1:
            raise InvalidParameter("lens(p,q) needs gcd(p,q) = 1")
        label = f"lens({p},{q})"
        space = {"character_join": AbelianCharacterData((p,), ((1,), (q % p,)), ()).to_json_dict()}
        coprime = next(ell for ell in (2, 3, 5) if p % ell != 0)
        fields = ("Q", *(f"Fp:{ell}" for ell in prime_factors(p)), f"Fp:{coprime}")
        checks = KNOWN_CHECKS
    elif name == "quaternion_q8":
        label = name
        space = _signed_space(4, [
            SignedPermutation((2, 1, 4, 3), (-1, 1, -1, 1)),
            SignedPermutation((3, 4, 1, 2), (-1, 1, 1, -1)),
        ])
    elif name == "sym3_on_s2":
        label = name
        space = _signed_space(3, [SignedPermutation((2, 1, 3), (1, 1, 1)), SignedPermutation((2, 3, 1), (1, 1, 1))])
    elif name == "dihedral_on_s1":
        (m,) = params
        # the explicit route's cost grows about as m^3
        if not 3 <= m <= DEFAULT_MAX_FACTOR:
            raise InvalidParameter(f"dihedral_on_s1(m) supports 3 <= m <= {DEFAULT_MAX_FACTOR}")
        label = f"dihedral_on_s1({m})"
        rotation = [(i + 1) % m for i in range(m)]
        reflection = [(-i) % m for i in range(m)]
        space = {"explicit": {"complex": polygon(m).to_json_dict(), "generators": [rotation, reflection]}}
        snf_cap = DEFAULT_SNF_CAP
    else:  # trivial_sphere
        (n,) = params
        if n < 1:
            raise InvalidParameter("trivial_sphere(n) needs n >= 1")
        label = f"trivial_sphere({n})"
        space = _signed_space(n, [])
        fields = ("Q", "Fp:2", "Fp:3", "Fp:5")
    return Scenario(name=label, space=space, fields=fields, checks=checks, snf_cap=snf_cap)


# ---------------------------------------------------------------------------
# randomized abelian sweep

def predicted_model_size(data: AbelianCharacterData) -> int:
    """Simplex count of the model after its forecast subdivisions.

    One subdivision suffices when every rotation block's polygon is at
    least twice the character order (shift-agreement on flags), that is,
    when no rotation order is 3 or more; otherwise two are forecast.  The
    count is `subdivided_size` of the model's f-vector (`join_f_vector`) at
    that depth, the helper that sizes every subdivision.  The pipeline
    still verifies the preconditions at each level, so an optimistic
    forecast only costs a redraw.
    """
    depth = 2 if any(d >= 3 for d in data.rotation_orders) else 1
    return subdivided_size(join_f_vector(data.block_lengths), depth)


@functools.lru_cache(maxsize=16)
def _block_counts(n_max: int) -> tuple:
    """The (rotation, sign) block counts a draw picks from: 2r + s <= n_max, and
    1 to DEFAULT_MAX_BLOCKS blocks, which is every such pair for n_max <= DEFAULT_MAX_BLOCKS."""
    return tuple(
        (r, s)
        for r in range(n_max // 2 + 1)
        for s in range(n_max + 1)
        if 1 <= r + s <= DEFAULT_MAX_BLOCKS and 2 * r + s <= n_max
    )


def random_character_data(rng: random.Random, n_max: int) -> AbelianCharacterData:
    """One draw of the documented sweep distribution (no size guard); its
    block counts are drawn uniformly from `_block_counts(n_max)`."""
    t = rng.randint(1, 3)
    ms = tuple(rng.randint(2, 12) for _ in range(t))
    pairs = _block_counts(n_max)
    r, s = pairs[rng.randrange(len(pairs))]
    rot = tuple(tuple(rng.randrange(m) for m in ms) for _ in range(r))
    sgn = tuple(
        tuple(0 if m % 2 else rng.randint(0, 1) for m in ms) for _ in range(s)
    )
    return AbelianCharacterData(ms, rot, sgn)


def sweep_scenarios(n_max: int, samples: int, seed: int, fields, max_model_simplices: int):
    """Deterministic scenario stream for the sweep; oversized draws are redrawn.

    This is the one check of the stream's inputs, made before the first
    draw, so a stream of no samples refuses a malformed one too, with
    InvalidParameter naming it.  Each count is an integer, not a bool:
    `n_max` from 1 to 6, `samples` 0 or more and `max_model_simplices` 2 or
    more, since every draw is forecast at 2 or more simplices and a smaller
    guard would redraw forever.  `seed` is any integer, and the field
    labels follow the rules of `Scenario` (`_check_field_labels`).
    """
    if not 1 <= _integer(n_max, "n_max") <= 6:
        raise InvalidParameter(f"field 'n_max' must satisfy 1 <= n_max <= 6, got {n_max}")
    _at_least(samples, "samples", 0)
    _integer(seed, "seed")
    _check_field_labels(fields)
    _at_least(max_model_simplices, "max_model_simplices", 2)
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

    `jobs`, an integer of 1 or more, is checked here, and every other input
    by the stream (`sweep_scenarios`), all before any draw.  `jobs` bounds
    the worker processes, which are also no more than the scenarios or the
    CPUs.
    """
    _at_least(jobs, "jobs", 1)
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
        "schema": "sweep_report_v2",
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
