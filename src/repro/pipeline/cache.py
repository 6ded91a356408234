"""Content-addressed compile cache for the ``synthesize`` stage.

Offline compilation dominates the real toolflow (AOC runs take hours),
and both the benchmark suite and the DSE sweeps re-synthesize identical
kernel systems dozens of times.  The cache is keyed on the content that
determines a bitstream — generated OpenCL source, channel topology,
board, AOC constants — so a hit returns a bitstream equal to what a
fresh synthesis would produce.

Two backends compose: an in-process LRU :class:`MemoryBackend` (always
on by default) and an optional pickle-per-entry :class:`DiskBackend`
that survives process restarts.  :class:`MemoryBackend` is also the LRU
behind the per-kernel lower cache (:mod:`repro.flow.incremental`) and
the equivalence-certificate cache (:mod:`repro.verify.equiv`).  Deterministic synthesis *failures*
(fit/routing) are cached too, as :class:`CachedFailure` entries, so a
DSE sweep does not re-synthesize known-infeasible points.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: environment variable enabling the on-disk backend of the default cache
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: what a backend's ``get`` returns for an absent key (``None`` is a value)
MISS = object()


@dataclass
class CachedFailure:
    """A deterministic synthesis failure, replayable from the cache."""

    kind: str  # exception class name within repro.errors
    message: str
    #: placement seeds the resilient synthesize stage attempted before
    #: giving up (empty when no seed sweep ran)
    seeds_tried: Tuple[int, ...] = ()


class MemoryBackend:
    """In-process LRU store."""

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = max_entries
        self._store: "OrderedDict[str, object]" = OrderedDict()

    def get(self, key: str) -> object:
        if key not in self._store:
            return MISS
        self._store.move_to_end(key)
        return self._store[key]

    def put(self, key: str, value: object) -> None:
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)

    def clear(self) -> None:
        self._store.clear()

    def values(self) -> List[object]:
        """The stored values, least recently used first."""
        return list(self._store.values())

    def __len__(self) -> int:
        return len(self._store)


class DiskBackend:
    """One pickle file per entry under a cache directory."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> object:
        path = self._path(key)
        if not path.exists():
            return MISS
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            # corrupt/partial entry: drop it and treat as a miss
            try:
                path.unlink()
            except OSError:
                pass
            return MISS

    def put(self, key: str, value: object) -> None:
        # atomic publish: write to a temp file, verify it round-trips,
        # then rename into place — a torn or unpicklable entry must never
        # become visible under the final name
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                with open(tmp, "rb") as fh:
                    pickle.load(fh)
            except Exception as err:
                raise ReproError(
                    f"compile-cache entry {key!r} failed round-trip "
                    f"verification after write: {err}"
                ) from err
            os.replace(tmp, self._path(key))
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))


class CompileCache:
    """Content-addressed cache with layered backends + hit/miss stats."""

    def __init__(
        self,
        backends: Optional[Sequence[object]] = None,
        max_entries: int = 128,
        disk_dir: Optional[os.PathLike] = None,
    ) -> None:
        if backends is None:
            backends = [MemoryBackend(max_entries)]
            if disk_dir:
                backends.append(DiskBackend(disk_dir))
        self.backends: List[object] = list(backends)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Tuple[bool, object]:
        """``(found, value)``; a hit is promoted into earlier backends."""
        for i, backend in enumerate(self.backends):
            value = backend.get(key)
            if value is not MISS:
                for earlier in self.backends[:i]:
                    earlier.put(key, value)
                self.hits += 1
                return True, value
        self.misses += 1
        return False, None

    def store(self, key: str, value: object) -> None:
        for backend in self.backends:
            backend.put(key, value)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

    def __repr__(self) -> str:
        kinds = "+".join(type(b).__name__ for b in self.backends)
        return f"CompileCache({kinds}, {self.hits} hits / {self.misses} misses)"


_default: Optional[CompileCache] = None


def default_cache() -> CompileCache:
    """The process-wide cache used when no explicit cache is passed.

    Honors ``REPRO_CACHE_DIR`` for an on-disk backend; otherwise memory
    only.
    """
    global _default
    if _default is None:
        _default = CompileCache(disk_dir=os.environ.get(CACHE_DIR_ENV) or None)
    return _default


def set_default_cache(cache: Optional[CompileCache]) -> None:
    """Replace (or, with ``None``, reset) the process-wide default cache."""
    global _default
    _default = cache
