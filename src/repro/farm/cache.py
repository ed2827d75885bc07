"""On-disk JSON result cache for the experiment farm.

One file per :class:`~repro.farm.spec.RunSpec`, under
``.repro-cache/<key[:2]>/<key>.json``, holding the spec's identity, the
fingerprint of the ``repro`` sources that computed it, and the task's
JSON value.  Corrupt or mismatched files (another key, other sources)
are treated as misses and removed.  Hit/miss/store/corrupt counters are
kept so runs can report their cache effectiveness (``python -m repro``
prints them).
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.farm.spec import RunSpec
from repro.obs.metrics import StatBlock

#: default cache location, relative to the working directory
DEFAULT_CACHE_ROOT = ".repro-cache"

_MISS = (False, None)


@lru_cache(maxsize=None)
def source_fingerprint() -> str:
    """sha256 over every ``src/repro/**/*.py`` (relative path and bytes),
    computed once per process: an entry is served only to the sources
    that stored it."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class ResultCache:
    """Content-addressed store of farm task results."""

    def __init__(
        self,
        root: Union[str, Path] = DEFAULT_CACHE_ROOT,
        enabled: bool = True,
    ) -> None:
        self.root = Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.write_errors = 0
        StatBlock.publish_samples(
            lambda: {"cache_hits_total": self.hits, "cache_misses_total": self.misses}
        )

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a corrupt entry counts as a miss."""
        if not self.enabled:
            return _MISS
        path = self.path_for(spec.key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            if (
                payload.get("key") != spec.key
                or payload.get("source") != source_fingerprint()
                or "value" not in payload
            ):
                raise ValueError("cache entry does not match its key or sources")
        except FileNotFoundError:
            self.misses += 1
            return _MISS
        except (ValueError, OSError):
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
            return _MISS
        self.hits += 1
        return True, payload["value"]

    def put(self, spec: RunSpec, value: Any) -> None:
        """Store a result atomically (write temp file, then rename).

        Best-effort: the cache is an optimisation, so an unwritable
        cache location degrades to cache-less operation (with a
        one-time warning) instead of failing the experiment run.
        """
        if not self.enabled:
            return
        payload = {
            "key": spec.key,
            "runner": spec.runner,
            "seed": spec.seed,
            "kwargs": spec.kwargs,
            "source": source_fingerprint(),
            "value": value,
        }
        try:
            path = self.path_for(spec.key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
            os.replace(tmp, path)
        except OSError as exc:
            self.write_errors += 1
            if self.write_errors == 1:
                warnings.warn(
                    f"result cache at {self.root} is not writable "
                    f"({exc}); continuing without storing results",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        self.stores += 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        return self.hits / total if total else None

    def stats(self) -> Dict[str, Any]:
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "write_errors": self.write_errors,
            "hit_rate": self.hit_rate,
        }
