"""Put the checkout's own `sqh` sources first on the import path."""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class MissingSources(RuntimeError):
    """The checkout has no sqh sources to benchmark."""


def require_sqh() -> None:
    """Import sqh from <checkout>/src, never from an installed copy."""
    if not (SRC / "sqh" / "__init__.py").is_file():
        raise MissingSources(f"no sqh package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sqh

    if Path(sqh.__file__).resolve().parent != (SRC / "sqh").resolve():
        raise MissingSources(f"sqh was imported from {sqh.__file__}, not from {SRC}")
