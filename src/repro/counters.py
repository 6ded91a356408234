"""Process-wide event counters: the one registry every count goes into.

Code counts an event where it happens, with one :func:`count` call;
readers take a family of counters by name prefix.  The memo statistics
of :mod:`repro.flow.incremental` and :mod:`repro.verify.equiv`, the
``schedule``/``lower`` trace counters and the perf trajectory's exact
gates are views or deltas of it; ``docs/performance.md`` tables every
name.  A ``fork()``ed worker counts into its own copy.  This module
imports nothing from :mod:`repro`, so any layer may count.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from typing import Dict, Iterable, Iterator

__all__ = ["count", "read", "reset", "delta"]

#: counter name -> events since the process started or its family was
#: last reset; a name never counted reads 0
_COUNTS: Counter = Counter()


def count(name: str, n: int = 1) -> None:
    """Count ``n`` ``name`` events (one by default)."""
    _COUNTS[name] += n


def read(prefix: str = "", names: Iterable[str] = ()) -> Dict[str, int]:
    """Every counter whose name starts with ``prefix``, keyed by the rest
    of its name; each of ``names`` is present, at 0 if never counted."""
    out = dict.fromkeys(names, 0)
    out.update((name[len(prefix):], n) for name, n in _COUNTS.items()
               if name.startswith(prefix))
    return out


def reset(prefix: str) -> None:
    """Zero every counter whose name starts with ``prefix``."""
    for name in [name for name in _COUNTS if name.startswith(prefix)]:
        del _COUNTS[name]


@contextlib.contextmanager
def delta(prefix: str = "",
          names: Iterable[str] = ()) -> Iterator[Dict[str, int]]:
    """Yield a dict that holds, once the block exits, what it added to
    each counter ``read(prefix, names)`` returns."""
    before = read(prefix)
    added: Dict[str, int] = {}
    yield added
    added.update((name, n - before.get(name, 0))
                 for name, n in read(prefix, names).items())
