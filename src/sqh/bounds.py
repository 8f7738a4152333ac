"""Evaluate the uniform homology bounds and verify each inequality.

Every check computes both sides of an inequality on the given action and
records the inputs, so a verdict can be recomputed from the stored report.
A check works on the subgroup's action at its admissible subdivision, given
by `subgroup_action`: the restricted action itself, or its flag action on
the first barycentric subdivision, read off the subgroup's own orbit pass
over the model, so no element is mapped onto a subdivision.  Quotient
homology comes from the orbit chain complex there, and relative homology of
the quotient pair from that complex with the fixed cells removed.  The
restricted actions, their flag actions, the Sylow subgroups, the fixed
subcomplexes, the orbit complexes and their Betti numbers are cached on the
actions (see `VertexAction`), so the checks share them for as long as the
action lives, which in `run_scenario` is one scenario; a fixed subcomplex's
chain complex is cached on that complex.  Relative homology is computed
inside each check.  A `run_scenario` run that asks for torsion (`snf_cap` >
0) takes its reported Betti numbers and torsion from the whole group's orbit
complex as well; only an `snf_cap` 0 run takes its Betti numbers from the
simplicial quotient.
A failed hard verdict means either an engine bug or a genuine
counterexample, and aborts the run with a diagnostic dump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .actions import (
    VertexAction,
    SubgroupHandle,
    admissible_subdivision,
    fixed_subcomplex,
    is_admissible,
    orbit_betti,
    orbit_chain_complex,
    subgroup_action,
    sylow,
)
from .complexes import SimplicialComplex, chain_complex
from .errors import BoundViolation, InvalidParameter
from .homology import BettiTable, FieldSpec, betti, is_prime, prime_factors, relative_betti


def jordan_constant(n: int) -> int:
    """Working value J(n) = (n+1)!; proved for n >= 71, heuristic below."""
    return math.factorial(n + 1)


def abelian_bound(n: int) -> int:
    if n < 1:
        raise InvalidParameter("n >= 1 required")
    return 3**n


def cyclic_bound(d: int, k: int) -> int:
    if d < 0 or k < 0:
        raise InvalidParameter("d >= 0 and k >= 0 required")
    return 3 * (d + 1) * k


def pgroup_bound(d: int, k: int, r: int) -> int:
    if r < 0:
        raise InvalidParameter("r >= 0 required")
    return (3 * (d + 1)) ** r * k


@dataclass(frozen=True)
class FiniteBound:
    integer_form: int   # (3(d+1))^floor(log_p order) * k
    real_form: float    # order^(log_p 3(d+1)) * k
    exponent: int       # floor(log_p order)


def finite_bound(d: int, k: int, order: int, p: int) -> FiniteBound:
    if order < 1:
        raise InvalidParameter("order >= 1 required")
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    r = 0
    q = p
    while q <= order:
        r += 1
        q *= p
    integer_form = (3 * (d + 1)) ** r * k
    real_form = order ** math.log(3 * (d + 1), p) * k
    return FiniteBound(integer_form, real_form, r)


def jordan_combined_bound(n: int, q_order: int) -> float:
    if n < 1 or q_order < 1:
        raise InvalidParameter("n >= 1 and q_order >= 1 required")
    return n * 3**n * q_order ** math.log2(3 * n)


def thm13_constant(k: int, natural_log: bool = False) -> float:
    """3^k * (k+1)!^(log 3k); log base 2 unless natural_log."""
    if k < 1:
        raise InvalidParameter("k >= 1 required")
    exponent = math.log(3 * k) if natural_log else math.log2(3 * k)
    return 3**k * math.factorial(k + 1) ** exponent


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    inputs: dict
    detail: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "inputs": self.inputs, "detail": self.detail}


def _betti_or_zero(k: SimplicialComplex, fieldspec: FieldSpec, length: int) -> list:
    return _pad(betti(chain_complex(k), [fieldspec]).betti(fieldspec), length)


def _pad(seq, length):
    return list(seq) + [0] * (length - len(seq))


def smith_floyd_check(action: VertexAction, p_subgroup: SubgroupHandle, p: int) -> CheckResult:
    """Total mod-p Betti of the fixed set is at most that of the space."""
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    if prime_factors(p_subgroup.order).keys() - {p}:
        raise InvalidParameter(f"subgroup of order {p_subgroup.order} is not a {p}-group")
    fp = FieldSpec(p)
    # the fixed set at the subgroup's admissible subdivision, which has the model's dimension
    fixed = fixed_subcomplex(action, p_subgroup)
    subdivisions = int(not is_admissible(action.restrict(p_subgroup)))
    length = action.complex.dimension + 1
    lhs = sum(_betti_or_zero(fixed, fp, length))
    rhs = sum(_betti_or_zero(action.complex, fp, length))
    return CheckResult(
        name="smith_floyd",
        passed=lhs <= rhs,
        inputs={"p": p, "subgroup_order": p_subgroup.order, "subdivisions": subdivisions},
        detail={"fixed_total": lhs, "space_total": rhs},
    )


def cyclic_chain_check(action: VertexAction, cp_handle: SubgroupHandle, p: int) -> CheckResult:
    """The three inequality families behind the cyclic orbit bound.

    Over F_p, with Y the space at the admissible subdivision of the C_p
    action, F its fixed subcomplex and Q = Y/C_p, whose chains are the
    orbit chain complex:
      (1) b_t(Y, F) <= b_t(Y) + b_{t-1}(F)           (pair sequence)
      (2) b_n(Q, F) <= sum_{t<=n} b_t(Y, F)           (Cartan-Leray)
      (3) b_n(Q)    <= b_n(F) + b_n(Q, F)             (pair sequence)
    plus the headline b_n(Q) <= 3(d+1)k with k = max_i b_i(Y).
    """
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    if cp_handle.order not in (1, p):
        raise InvalidParameter("subgroup must be trivial or cyclic of order p")
    fp = FieldSpec(p)
    y_action = subgroup_action(action, cp_handle)
    subdivisions = int(not is_admissible(action.restrict(cp_handle)))
    d = action.complex.dimension
    length = d + 1
    fixed = fixed_subcomplex(action, cp_handle)

    # Betti numbers do not change under subdivision: b(Y) is the model's
    b_y = _betti_or_zero(action.complex, fp, length)
    b_f = _betti_or_zero(fixed, fp, length)
    b_q = _pad(orbit_betti(y_action, fp), length)
    if fixed.facets:
        # F's simplices are singleton orbits, so they label cells of Q as well
        b_rel_yf = _pad(relative_betti(chain_complex(y_action.complex), fixed, [fp]).betti(fp), length)
        b_rel_qf = _pad(relative_betti(orbit_chain_complex(y_action), fixed, [fp]).betti(fp), length)
    else:  # relative to an empty F, the pairs are the spaces themselves
        b_rel_yf, b_rel_qf = b_y, b_q

    k = max(b_y)
    headline = cyclic_bound(d, k)
    pair_ok = all(
        b_rel_yf[t] <= b_y[t] + (b_f[t - 1] if t >= 1 else 0) for t in range(length)
    )
    cartan_leray_ok = all(
        b_rel_qf[n] <= sum(b_rel_yf[: n + 1]) for n in range(length)
    )
    quotient_pair_ok = all(b_q[n] <= b_f[n] + b_rel_qf[n] for n in range(length))
    headline_ok = all(b <= headline for b in b_q)
    return CheckResult(
        name="cyclic_chain",
        passed=pair_ok and cartan_leray_ok and quotient_pair_ok and headline_ok,
        inputs={
            "p": p,
            "subgroup_order": cp_handle.order,
            "d": d,
            "k": k,
            "subdivisions": subdivisions,
        },
        detail={
            "b_Y": b_y,
            "b_F": b_f,
            "b_Y_rel_F": b_rel_yf,
            "b_Q": b_q,
            "b_Q_rel_F": b_rel_qf,
            "pair_sequence": pair_ok,
            "cartan_leray": cartan_leray_ok,
            "quotient_pair": quotient_pair_ok,
            "headline_bound": headline,
            "headline": headline_ok,
        },
    )


def transfer_check(action: VertexAction, p: int) -> CheckResult:
    """Degreewise b_i(Y/G; F_p) <= b_i(Y/Syl_p(G); F_p)."""
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    fp = FieldSpec(p)
    full = action.full_subgroup()
    syl = sylow(action, full, p)
    length = action.complex.dimension + 1
    b_g = _pad(orbit_betti(admissible_subdivision(action), fp), length)
    b_p = _pad(orbit_betti(subgroup_action(action, syl), fp), length)
    ok = all(x <= y for x, y in zip(b_g, b_p))
    return CheckResult(
        name="transfer",
        passed=ok,
        inputs={"p": p, "group_order": full.order, "sylow_order": syl.order},
        detail={"b_quotient_G": b_g, "b_quotient_Sylow": b_p},
    )


@dataclass(frozen=True)
class ScenarioObservation:
    """Everything evaluate_all needs, assembled by the harness."""

    scenario_id: str
    ambient_n: int                 # the sphere is S^{n-1}
    group_order: int               # effective acting group
    is_abelian: bool
    quotient_table: BettiTable
    model_table: BettiTable        # Betti of the unquotiented model (homotopy-invariant)
    abelian_normal_order: int
    abelian_via_fallback: bool
    block_count: int | None = None
    cover_e1: int | None = None


@dataclass(frozen=True)
class BoundEvaluation:
    name: str
    field: str
    applicable: bool
    hard: bool                 # counts toward the abort-on-failure policy
    passed: bool | None
    observed: int | None
    value: float | int | None
    display: str | None
    exact_form: str | None
    inputs: dict = field(default_factory=dict)

    @property
    def slack(self):
        if not self.applicable or self.value is None or self.observed is None:
            return None
        return self.value / max(1, self.observed)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "applicable": self.applicable,
            "hard": self.hard,
            "passed": self.passed,
            "observed": self.observed,
            "value": self.value,
            "display": self.display,
            "exact_form": self.exact_form,
            "inputs": self.inputs,
            "slack": self.slack,
        }


@dataclass(frozen=True)
class BoundReport:
    scenario_id: str
    evaluations: tuple
    checks: tuple = ()

    @property
    def all_passed(self) -> bool:
        return all(
            e.passed for e in self.evaluations if e.applicable and e.hard
        ) and all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": "bound_report_v1",
            "scenario": self.scenario_id,
            "evaluations": [e.to_json() for e in self.evaluations],
            "checks": [c.to_json() for c in self.checks],
            "all_passed": self.all_passed,
        }


def evaluate_all(obs: ScenarioObservation, checks=()) -> BoundReport:
    """Evaluate every applicable bound for the observation, per field.

    Hard rows restate theorems; a failed one raises BoundViolation, whose
    dump is the report's JSON.  Soft rows (the J(n)=(n+1)! fallback and the
    direct constant-comparison of the two published forms) are
    informational.
    """
    n = obs.ambient_n
    d = n - 1
    q_order = obs.group_order // obs.abelian_normal_order
    factors = prime_factors(obs.group_order)
    pp = next(iter(factors.items())) if len(factors) == 1 else None  # (p, r): order = p^r
    rows = []
    for f in obs.quotient_table.fields():
        label = f.label()
        total = obs.quotient_table.total(f)
        peak = obs.quotient_table.max_betti(f)
        k = obs.model_table.max_betti(f)

        b3n = abelian_bound(n)
        rows.append(
            BoundEvaluation(
                "abelian_3n", label, obs.is_abelian, True,
                (total <= b3n) if obs.is_abelian else None,
                total if obs.is_abelian else None,
                b3n, format(b3n, ".4g"), f"3^{n}",
                {"n": n},
            )
        )
        if obs.cover_e1 is not None:
            cap = 3 ** obs.block_count - 1
            rows.append(
                BoundEvaluation(
                    "cover_e1", label, True, True,
                    total <= obs.cover_e1 <= cap <= 3**n,
                    total, obs.cover_e1, format(obs.cover_e1, ".4g"),
                    f"sum_J c_J*2^a(J) <= 3^{obs.block_count}-1",
                    {"N": obs.block_count, "cap": cap},
                )
            )
        applicable_cyclic = pp is not None and pp[1] == 1 and not f.is_rationals and f.p == pp[0]
        cb = cyclic_bound(d, k)
        rows.append(
            BoundEvaluation(
                "cyclic", label, applicable_cyclic, True,
                (peak <= cb) if applicable_cyclic else None,
                peak if applicable_cyclic else None,
                cb, format(cb, ".4g"), f"3*({d}+1)*{k}",
                {"d": d, "k": k},
            )
        )
        applicable_pgroup = pp is not None and not f.is_rationals and f.p == pp[0]
        pb = pgroup_bound(d, k, pp[1]) if pp else None
        rows.append(
            BoundEvaluation(
                "pgroup", label, applicable_pgroup, True,
                (peak <= pb) if applicable_pgroup else None,
                peak if applicable_pgroup else None,
                pb, format(pb, ".4g") if pb is not None else None,
                f"(3*({d}+1))^{pp[1]}*{k}" if pp else None,
                {"d": d, "k": k, "r": pp[1] if pp else None},
            )
        )
        if not f.is_rationals:
            fb = finite_bound(d, k, obs.group_order, f.p)
            rows.append(
                BoundEvaluation(
                    "finite_transfer", label, True, True,
                    peak <= fb.integer_form and peak <= fb.real_form + 1e-9,
                    peak, fb.real_form, format(fb.real_form, ".4g"),
                    f"{obs.group_order}^(log_{f.p}(3*{d+1}))*{k}",
                    {
                        "d": d,
                        "k": k,
                        "order": obs.group_order,
                        "p": f.p,
                        "integer_form": fb.integer_form,
                        "floor_log": fb.exponent,
                    },
                )
            )
        else:
            model_total = obs.model_table.total(f)
            rows.append(
                BoundEvaluation(
                    "finite_transfer", label, True, True,
                    total <= model_total,
                    total, model_total, format(model_total, ".4g"),
                    "char-0 transfer: total b(Y/G) <= total b(Y)",
                    {"order": obs.group_order},
                )
            )
        jb = jordan_combined_bound(n, max(1, q_order))
        rows.append(
            BoundEvaluation(
                "jordan_combined", label, True, True,
                total <= jb + 1e-9,
                total, jb, format(jb, ".4g"),
                f"{n}*3^{n}*{max(1, q_order)}^(log2(3*{n}))",
                {
                    "n": n,
                    "q_order": q_order,
                    "abelian_normal_order": obs.abelian_normal_order,
                    "via_fallback": obs.abelian_via_fallback,
                },
            )
        )
        jn = jordan_constant(n)
        jbn = jordan_combined_bound(n, jn)
        rows.append(
            BoundEvaluation(
                "jordan_combined_jn", label, True, False,
                total <= jbn + 1e-9,
                total, jbn, format(jbn, ".4g"),
                f"{n}*3^{n}*({n}+1)!^(log2(3*{n})) [heuristic-for-small-n]",
                {"n": n, "J_n": jn},
            )
        )
        if d >= 1:
            t13 = thm13_constant(d)
            rows.append(
                BoundEvaluation(
                    "thm13_constant", label, True, True,
                    peak <= t13 + 1e-9,
                    peak, t13, format(t13, ".4g"),
                    f"3^{d}*({d}+1)!^(log2(3*{d}))",
                    {
                        "k": d,
                        "natural_log_value": thm13_constant(d, natural_log=True),
                    },
                )
            )
            direct = (d + 1) * 3 ** (d + 1) * math.factorial(d + 2) ** math.log2(3 * d + 3)
            rows.append(
                BoundEvaluation(
                    "thm13_direct_instantiation", label, True, False,
                    peak <= direct + 1e-9,
                    peak, direct, format(direct, ".4g"),
                    f"({d}+1)*3^{d+1}*({d}+2)!^(log2(3*{d}+3)) [open-question comparison]",
                    {"k": d},
                )
            )
    report = BoundReport(obs.scenario_id, tuple(rows), tuple(checks))
    if not report.all_passed:
        raise BoundViolation(
            f"verified inequality failed on scenario {obs.scenario_id}",
            dump=report.to_json(),
        )
    return report
