"""Evaluate the uniform homology bounds and verify each inequality.

Every check computes both sides of an inequality on the given action and
records the inputs, so a verdict can be recomputed from the stored report.
A check works on the subgroup's action at its admissible subdivision, given
by `subgroup_action`: the restricted action itself, or the subgroup on its
starred complex, which stars only the simplices the subgroup turns and
their cofaces.  Quotient homology comes from the orbit chain complex there,
the fixed set is a full subcomplex there, and the relative homology of the
space pair and of the quotient pair comes from the complex's own chains and
from the orbit complex with the fixed cells removed.  The restricted
actions, their starred actions, the Sylow subgroups, the fixed
subcomplexes and the orbit complexes are cached on the actions (see
`VertexAction`), so the checks share them for as long as the action lives,
which in `run_scenario` is one scenario; a complex's chain complex is
cached on that complex, and each matrix keeps its ranks.  Every Betti row
of a check is `_betti_or_zero` of one chain complex: the fixed set's, an
orbit complex, or a relative pair built inside the check.  A
`run_scenario` run that asks for torsion (`snf_cap` > 0) takes its
reported Betti numbers and torsion from the whole group's orbit complex as
well; only an `snf_cap` 0 run takes its Betti numbers from the simplicial
quotient.  The model's own Betti numbers, b(Y) in `smith_floyd` and
`cyclic_chain`, are `model_betti`'s, the row `run_scenario` reports: the
sphere's for a block model, computed for an explicit complex.

`CHECKS` is the one table of the checks a scenario can name, in report
order, and `run_checks` runs it.  Each inequality is written once, in the
row of `evaluate_all` that restates it; the `abelian_bound` and `cover_e1`
CheckResults are read off those rows.  A failed hard verdict means either
an engine bug or a genuine counterexample: `evaluate_all` reports it, and
`run_scenario` aborts the run on it with a dump that replays the scenario.

The ledger's JSON is `bound_report_v2`.  A bound holds over every field, so
what it states (`BoundForm`: hardness, value, display, exact form, inputs)
is written once in the report's `forms`, and each row over a field carries
only its verdict: {name, field, passed, observed, form}, with `form` the
index into `forms`.  A row applies when `passed` is not None, and its slack
is value / max(1, observed).  The CheckResults are written once, in the run
report's `checks`.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields

from .actions import (
    VertexAction,
    SubgroupHandle,
    admissible_subdivision,
    best_abelian_normal_subgroup,
    fixed_subcomplex,
    is_admissible,
    model_betti,
    orbit_chain_complex,
    subgroup_action,
    sylow,
)
from .complexes import OrientedChainComplex, chain_complex
from .errors import InvalidParameter
from .homology import BettiTable, FieldSpec, betti, is_prime, p_power_exponent, prime_factors, relative_chain
from .models import AbelianCharacterData, cover_e1_total


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


def _betti_or_zero(chain: OrientedChainComplex, fieldspec: FieldSpec, length: int) -> list:
    """The complex's Betti numbers over the field, padded with zeros to `length` degrees."""
    return _pad(betti(chain, [fieldspec]).betti(fieldspec), length)


def _model_betti(action: VertexAction, fieldspec: FieldSpec, length: int) -> list:
    """b(X; F) of the model, the row `run_scenario` reports: the sphere's for a block model."""
    return _pad(model_betti(action, [fieldspec]).betti(fieldspec), length)


def _pad(seq, length):
    return list(seq) + [0] * (length - len(seq))


def smith_floyd_check(action: VertexAction, p_subgroup: SubgroupHandle, p: int) -> CheckResult:
    """Total mod-p Betti of the fixed set is at most that of the space."""
    if not is_prime(p):
        raise InvalidParameter(f"{p} is not prime")
    if p_power_exponent(p_subgroup.order, p) is None:
        raise InvalidParameter(f"subgroup of order {p_subgroup.order} is not a {p}-group")
    fp = FieldSpec(p)
    # the fixed set at the subgroup's admissible subdivision, which has the model's dimension
    fixed = fixed_subcomplex(action, p_subgroup)
    subdivisions = int(not is_admissible(action.restrict(p_subgroup)))
    length = action.complex.dimension + 1
    lhs = sum(_betti_or_zero(chain_complex(fixed), fp, length))
    rhs = sum(_model_betti(action, fp, length))
    return CheckResult(
        name="smith_floyd",
        passed=lhs <= rhs,
        inputs={"p": p, "subgroup_order": p_subgroup.order, "subdivisions": subdivisions},
        detail={"fixed_total": lhs, "space_total": rhs},
    )


def cyclic_chain_check(action: VertexAction, cp_handle: SubgroupHandle, p: int) -> CheckResult:
    """The three inequality families behind the cyclic orbit bound.

    Over F_p, with Y the space, F = Y^{C_p} its fixed set and Q = Y/C_p:
      (1) b_t(Y, F) <= b_t(Y) + b_{t-1}(F)           (pair sequence)
      (2) b_n(Q, F) <= sum_{t<=n} b_t(Y, F)           (Cartan-Leray)
      (3) b_n(Q)    <= b_n(F) + b_n(Q, F)             (pair sequence)
    plus the headline b_n(Q) <= 3(d+1)k with k = max_i b_i(Y).

    Every term is a Betti number of the same spaces, the pair
    (|X|, |X|^{C_p}) or |X|/C_p, so the triangulation each is computed on
    does not change it.  b(Y) is the model's.  b(Y, F), b(F), b(Q) and
    b(Q, F) are taken on the complex of the C_p action at its admissible
    subdivision (`subgroup_action`): X, or X starred where C_p turns a
    simplex.  F is the fixed subcomplex there and Q's chains the orbit
    chain complex there.
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

    b_y = _model_betti(action, fp, length)
    b_f = _betti_or_zero(chain_complex(fixed), fp, length)
    b_q = _betti_or_zero(orbit_chain_complex(y_action), fp, length)
    if fixed.facets:
        b_rel_yf = _betti_or_zero(relative_chain(chain_complex(y_action.complex), fixed), fp, length)
        # F's simplices are singleton orbits, so they label cells of Q as well
        b_rel_qf = _betti_or_zero(relative_chain(orbit_chain_complex(y_action), fixed), fp, length)
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
    b_g = _betti_or_zero(orbit_chain_complex(admissible_subdivision(action)), fp, length)
    b_p = _betti_or_zero(orbit_chain_complex(subgroup_action(action, syl)), fp, length)
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
class BoundForm:
    """What one bound states, whatever the field's verdict: the `form` of a row.

    `hard` marks a theorem (a failed hard row fails the report, and
    `run_scenario` aborts); `display` is the value to four significant
    digits; `inputs` are the parameters the value was computed from.
    """

    hard: bool
    value: float | int | None
    display: str | None
    exact_form: str | None
    inputs: dict

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


@dataclass(frozen=True)
class BoundEvaluation:
    """One bound over one field: its verdict and observation, and its form.

    A row that does not apply has no verdict and no observation.  In the
    `bound_report_v2` JSON a row is {name, field, passed, observed, form},
    where `form` indexes the report's list of distinct BoundForms;
    `applicable` and `slack` are derived, as the properties below derive them.
    """

    name: str
    field: str
    passed: bool | None
    observed: int | None
    form: BoundForm

    @property
    def applicable(self) -> bool:
        return self.passed is not None

    @property
    def slack(self):
        if not self.applicable or self.form.value is None:
            return None
        return self.form.value / max(1, self.observed)


@dataclass(frozen=True)
class BoundReport:
    """The ledger of one run: every `evaluate_all` row, and the CheckResults
    that `failures` counts as well.

    Its JSON, `bound_report_v2`, is {schema, scenario, forms, evaluations,
    all_passed}: `forms` holds each distinct BoundForm once, in first-use
    order, and each row of `evaluations` names its form by index.  The
    CheckResults are not written: the run report holds them under `checks`.
    """

    scenario_id: str
    evaluations: tuple
    checks: tuple = ()

    @property
    def failures(self) -> list:
        """The names of the failed checks and hard rows, sorted, each once."""
        return sorted(
            {c.name for c in self.checks if not c.passed}
            | {e.name for e in self.evaluations if e.form.hard and e.passed is False}
        )

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        index = {}  # id of each distinct form -> its place in `forms`
        forms, rows = [], []
        for e in self.evaluations:
            if id(e.form) not in index:
                index[id(e.form)] = len(forms)
                forms.append(e.form.to_json())
            rows.append({"name": e.name, "field": e.field, "passed": e.passed, "observed": e.observed,
                         "form": index[id(e.form)]})
        return {
            "schema": "bound_report_v2",
            "scenario": self.scenario_id,
            "forms": forms,
            "evaluations": rows,
            "all_passed": self.all_passed,
        }


def _within(observed, value) -> bool:
    """observed <= value: exactly for an integer value, within 1e-9 for a float."""
    return observed <= value + (1e-9 if isinstance(value, float) else 0)


def _row(name, label, observed, value, exact_form, inputs, *, shared, applicable=True, hard=True, passed=None):
    """One evaluate_all row over the field `label`.

    `passed` defaults to `_within(observed, value)`; a row that does not
    apply has no verdict and no observation.  `display` is the value to four
    significant digits, interned.  `shared`, a dict that lives for one set
    of rows over the fields, hands rows of equal hardness, value, exact form
    and inputs (compared with their types, as JSON writes them) one
    BoundForm, so a bound's rows over several fields hold it once and the
    report writes it once.
    """
    if not applicable:
        passed = observed = None
    elif passed is None:
        passed = _within(observed, value)
    key = (hard, type(value), value, exact_form, tuple((k, type(v), v) for k, v in inputs.items()))
    if key not in shared:
        display = None if value is None else sys.intern(format(value, ".4g"))
        shared[key] = BoundForm(hard, value, display, exact_form, inputs)
    return BoundEvaluation(name, label, passed, observed, shared[key])


def _abelian_3n_row(label: str, total: int, n: int, is_abelian: bool, shared: dict) -> BoundEvaluation:
    """Total Betti of the quotient <= 3^n, for an abelian group acting on S^{n-1}."""
    return _row("abelian_3n", label, total, abelian_bound(n), f"3^{n}", {"n": n}, shared=shared,
                applicable=is_abelian)


def _cover_e1_row(label: str, total: int, cover: int, block_count: int, n: int, shared: dict) -> BoundEvaluation:
    """The chain total <= sum_J c_J*2^a(J) <= 3^N - 1 <= 3^n over the N-block cover."""
    cap = 3**block_count - 1
    return _row(
        "cover_e1", label, total, cover, f"sum_J c_J*2^a(J) <= 3^{block_count}-1",
        {"N": block_count, "cap": cap},
        passed=total <= cover <= cap <= abelian_bound(n), shared=shared,
    )


def evaluate_all(obs: ScenarioObservation, checks=()) -> BoundReport:
    """Evaluate every applicable bound for the observation, per field.

    Hard rows restate theorems; soft rows (the J(n)=(n+1)! fallback and the
    direct constant-comparison of the two published forms) are
    informational.  The report is returned whatever it finds: a failed
    check or hard row leaves `all_passed` False and is named in `failures`,
    and `run_scenario` aborts on it.
    """
    n = obs.ambient_n
    d = n - 1
    order = obs.group_order
    q_order = order // obs.abelian_normal_order
    q = max(1, q_order)
    p_g = min(prime_factors(order), default=2)
    r = p_power_exponent(order, p_g) or None  # |G| = p_g^r with r >= 1, else None
    jn = jordan_constant(n)
    rows = []
    shared: dict = {}  # the parts each bound's rows share across the fields
    row = functools.partial(_row, shared=shared)
    for f in obs.quotient_table.fields():
        label = f.label()
        total = obs.quotient_table.total(f)
        peak = obs.quotient_table.max_betti(f)
        k = obs.model_table.max_betti(f)
        at_p_g = not f.is_rationals and f.p == p_g
        rows.append(_abelian_3n_row(label, total, n, obs.is_abelian, shared))
        if obs.cover_e1 is not None:
            rows.append(_cover_e1_row(label, total, obs.cover_e1, obs.block_count, n, shared))
        rows.append(row("cyclic", label, peak, cyclic_bound(d, k), f"3*({d}+1)*{k}", {"d": d, "k": k},
                        applicable=at_p_g and r == 1))
        rows.append(row("pgroup", label, peak, pgroup_bound(d, k, r) if r else None,
                        f"(3*({d}+1))^{r}*{k}" if r else None, {"d": d, "k": k, "r": r},
                        applicable=at_p_g and r is not None))
        if f.is_rationals:
            rows.append(row("finite_transfer", label, total, obs.model_table.total(f),
                            "char-0 transfer: total b(Y/G) <= total b(Y)", {"order": order}))
        else:
            fb = finite_bound(d, k, order, f.p)
            rows.append(row("finite_transfer", label, peak, fb.real_form, f"{order}^(log_{f.p}(3*{d+1}))*{k}",
                            {"d": d, "k": k, "order": order, "p": f.p, "integer_form": fb.integer_form,
                             "floor_log": fb.exponent},
                            passed=peak <= fb.integer_form and _within(peak, fb.real_form)))
        rows.append(row("jordan_combined", label, total, jordan_combined_bound(n, q),
                        f"{n}*3^{n}*{q}^(log2(3*{n}))",
                        {"n": n, "q_order": q_order, "abelian_normal_order": obs.abelian_normal_order,
                         "via_fallback": obs.abelian_via_fallback}))
        rows.append(row("jordan_combined_jn", label, total, jordan_combined_bound(n, jn),
                        f"{n}*3^{n}*({n}+1)!^(log2(3*{n})) [heuristic-for-small-n]", {"n": n, "J_n": jn},
                        hard=False))
        if d >= 1:
            rows.append(row("thm13_constant", label, peak, thm13_constant(d), f"3^{d}*({d}+1)!^(log2(3*{d}))",
                            {"k": d, "natural_log_value": thm13_constant(d, natural_log=True)}))
            direct = (d + 1) * 3 ** (d + 1) * math.factorial(d + 2) ** math.log2(3 * d + 3)
            rows.append(row("thm13_direct_instantiation", label, peak, direct,
                            f"({d}+1)*3^{d+1}*({d}+2)!^(log2(3*{d}+3)) [open-question comparison]", {"k": d},
                            hard=False))
    return BoundReport(obs.scenario_id, tuple(rows), tuple(checks))


# ---------------------------------------------------------------------------
# the table of checks


@dataclass(frozen=True)
class CheckRun:
    """What the checks read of one run: the model's action, the Betti
    tables of the quotient and of the model, and the character data of a
    character_join model (None for other models)."""

    scenario_id: str
    action: VertexAction
    quotient_table: BettiTable
    model_table: BettiTable
    char_data: AbelianCharacterData | None = None

    @property
    def ambient_n(self) -> int:  # the sphere is S^{n-1}
        return self.action.complex.dimension + 1

    @functools.cached_property
    def full(self) -> SubgroupHandle:
        return self.action.full_subgroup()

    @functools.cached_property
    def primes(self) -> list:
        """The primes of |G|, or [2] for the trivial group."""
        return list(prime_factors(self.full.order)) or [2]

    @functools.cached_property
    def cover(self):
        """The E1 page of the block cover (`cover_e1_total`), taken once."""
        return cover_e1_total(self.char_data)


def _least_cp_handle(action: VertexAction, p: int) -> SubgroupHandle:
    """The subgroup generated by the least-index element of order p, else the trivial one."""
    for i in range(1, action.order):
        if action.element_order(i) == p:
            return action.subgroup(action.closure_indices({i}))
    return action.trivial_subgroup()


def _abelian_bound(run: CheckRun) -> list:
    out, shared, details = [], {}, {}  # fields of equal totals share one detail
    for f in run.quotient_table.fields():
        total = run.quotient_table.total(f)
        row = _abelian_3n_row(f.label(), total, run.ambient_n, run.full.is_abelian, shared)
        out.append(CheckResult(  # a nonabelian group passes
            "abelian_bound", row.passed is not False,
            {"field": row.field, "n": run.ambient_n, "applicable": row.applicable},
            details.setdefault(total, {"observed_total": total, "bound": row.form.value})))
    return out


def _smith_floyd(run: CheckRun) -> list:
    return [smith_floyd_check(run.action, sylow(run.action, run.full, p), p) for p in run.primes]


def _cyclic_chain(run: CheckRun) -> list:
    return [cyclic_chain_check(run.action, _least_cp_handle(run.action, p), p) for p in run.primes]


def _transfer(run: CheckRun) -> list:
    return [transfer_check(run.action, p) for p in run.primes]


def _cover_e1(run: CheckRun) -> list:
    cover = run.cover
    # one list, shared by every field's detail
    per_j = [{"J": list(j), "a": a, "b": b, "betti": list(bs), "total": sub} for j, a, b, bs, sub in cover.per_j]
    out, shared, details = [], {}, {}  # fields of equal totals share one detail
    for f in run.quotient_table.fields():
        total = run.quotient_table.total(f)
        row = _cover_e1_row(f.label(), total, cover.total, run.char_data.block_count, run.ambient_n, shared)
        detail = {"observed_total": total, "cover_e1_total": cover.total, "cap": row.form.inputs["cap"], "per_J": per_j}
        out.append(CheckResult(
            "cover_e1", row.passed, {"field": row.field, "N": row.form.inputs["N"]}, details.setdefault(total, detail)))
    return out


def _evaluate_all(run: CheckRun, checks: tuple) -> BoundReport:
    normal = best_abelian_normal_subgroup(run.action)
    obs = ScenarioObservation(
        run.scenario_id, run.ambient_n, run.full.order, run.full.is_abelian, run.quotient_table, run.model_table,
        abelian_normal_order=normal.order,
        abelian_via_fallback=normal.via_fallback,
        block_count=run.char_data.block_count if run.char_data else None,
        cover_e1=run.cover.total if run.char_data else None,
    )
    return evaluate_all(obs, checks)


# Every check a scenario can name, in report order, and the code that
# produces its CheckResults from the run; smith_floyd, cyclic_chain and
# transfer give one per prime of |G| (or of [2]).  The last entry is the
# ledger: "evaluate_all" turns the run and the other checks' results into
# the BoundReport.  cover_e1 needs a character_join model (`Scenario`
# refuses it on any other).
CHECKS = {
    "abelian_bound": _abelian_bound,
    "smith_floyd": _smith_floyd,
    "cyclic_chain": _cyclic_chain,
    "transfer": _transfer,
    "cover_e1": _cover_e1,
    "evaluate_all": _evaluate_all,
}


def run_checks(run: CheckRun, names, stage) -> tuple:
    """(CheckResults, BoundReport or None): the named checks in table order,
    then the ledger when "evaluate_all" is named.

    `stage(name, t0)` closes a timing stage begun at t0: "checks" after the
    CheckResults, always, and "evaluate_all" after the ledger when it runs.
    Nothing is raised on a failed verdict; `run_scenario` decides.
    """
    *checks, (ledger_name, ledger) = CHECKS.items()
    t0 = time.perf_counter()
    results = tuple(r for name, produce in checks if name in names for r in produce(run))
    stage("checks", t0)
    if ledger_name not in names:
        return results, None
    t0 = time.perf_counter()
    report = ledger(run, results)
    stage(ledger_name, t0)
    return results, report
