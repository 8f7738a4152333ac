"""Exception taxonomy shared across the engine.

Each class corresponds to one error kind named in the module contracts;
the CLI maps them onto exit codes (2 = bad input, 3 = a verified
inequality failed, 4 = resource caps).
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
    """A chain complex violates the boundary-squares-to-zero invariant."""


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

    Carries the diagnostic payload so the offending scenario can be
    serialized and replayed.
    """

    def __init__(self, message, dump=None):
        super().__init__(message)
        self.dump = dump if dump is not None else {}
