"""Exception taxonomy shared across the engine.

Each class corresponds to one error kind named in the module contracts;
the CLI maps them onto exit codes (2 = bad input, 3 = a verified
inequality failed, 4 = resource caps, 5 = an engine fault).
"""


class SqhError(Exception):
    """Base class for all engine errors."""


class InvalidParameter(SqhError, ValueError):
    """An argument is outside its documented domain."""


class ActionInvalid(SqhError, ValueError):
    """A vertex map is not a simplicial automorphism of the complex."""


class GroupTooLarge(SqhError):
    """Generator closure exceeded the configured element cap."""


class NeedsSubdivision(SqhError):
    """The action fails the admissibility/quotient preconditions; subdivide and retry."""


class CorruptComplex(SqhError):
    """An engine fault: one of the engine's own cross-checks failed.

    The message names it: dd = 0, an SNF or rank cross-check, a Lefschetz
    oracle, or the depth-2 quotient that Bredon's theorem makes simplicial.
    The CLI sets `dump` to {"scenario": the JSON that replays the run}.
    """

    def __init__(self, message):
        super().__init__(message)
        self.dump: dict = {}


class SnfTooLarge(SqhError):
    """Matrix exceeds a Smith-normal-form size cap.

    The engine no longer caps the Smith normal form, so nothing raises it.
    It is kept only because perfbench/spans.py imports it to count skipped
    SNF calls, until that tracer is next changed (ROADMAP item 1a).
    """


class ResourceCapExceeded(SqhError):
    """A model grew past the configured simplex or time budget."""


class BoundViolation(SqhError):
    """A verified inequality from the bound ledger failed.

    `run_scenario` raises it, and nothing else does, when a check or a hard
    `evaluate_all` row fails.  Its `dump` always has three keys:
    "scenario", the scenario's JSON, which `Scenario.from_json_dict` reads
    back to replay the run; "checks", the JSON of every CheckResult; and
    "bound_report", the BoundReport's JSON, or None when the scenario does
    not name `evaluate_all`.
    """

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump if dump is not None else {}
