"""Opt-in content-addressed on-disk cache for kernel estimates and corpus shards.

``SpMMKernel.estimate``'s in-process memo (``_ESTIMATE_MEMO``) dies with
the process, so CI and every CLI invocation would re-derive the same
deterministic numbers.  :class:`DiskCache` persists them across
processes under the *same content-addressed keys*:

* ``timing`` entries — full :class:`~repro.gpusim.timing.KernelTiming`
  payloads keyed ``(kernel.cache_key(), fingerprint, n, gpu.name,
  semiring.name, params)``.  Sweeps replay from these: a sweep cell is
  a pure function of its timing and ``2·nnz·N``;
* ``shard`` entries — one completed corpus-sweep shard (the run-ordered
  cell list plus per-matrix stats; see ``repro.bench.corpus``) keyed on
  the shard's spec keys, kernel cache keys, widths, and GPU names.
  Shard checkpoints are what make an interrupted corpus sweep resume
  with zero recomputation.

Content addressing makes invalidation automatic for *inputs*: a new
matrix, width, GPU spec, kernel configuration, or calibration constant
produces a different key, so stale entries are simply never read again.
Changes to the *timing model code* are what the ``SCHEMA`` tag guards:
bump it whenever the meaning of a payload changes and every old entry is
rejected on read (counted under ``diskcache.invalidations``) — which is
also why the cache directory is always safe to delete wholesale.

Entry files are JSON (``{"schema", "kind", "key", "payload"}``) named by
the BLAKE2b digest of ``repr((SCHEMA, kind, key))`` and written
atomically (temp file + ``os.replace``), so concurrent writers are safe
and a torn write can never be read back.  A read whose stored ``key``
repr does not match the request (digest collision, truncation, manual
tampering) is treated as an invalidation, the file removed best-effort.

Activation is opt-in: ``set_disk_cache(DiskCache(path))`` /
``use_disk_cache(...)`` programmatically, ``--cache-dir`` on
``repro-bench sweep``/``gate``, or the ``REPRO_CACHE_DIR`` environment
variable.  Hits/misses/invalidations surface per kind as the
``diskcache.*`` counters and per instance via :meth:`DiskCache.counters`.
See docs/PERFORMANCE.md "Access profiles & disk cache".
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.gpusim.memory import AccessStats, ArrayTraffic, KernelStats
from repro.gpusim.occupancy import LaunchConfig, Occupancy
from repro.gpusim.timing import KernelTiming

__all__ = [
    "SCHEMA",
    "DiskCache",
    "get_disk_cache",
    "set_disk_cache",
    "use_disk_cache",
    "CACHE_DIR_ENV",
]

PathLike = Union[str, Path]

#: Version tag baked into every entry digest *and* stored in the file.
#: Bump on any change to payload semantics (new KernelTiming fields, a
#: different shard layout, ...) — old entries then miss cleanly.
#: v2: KernelTiming grew ``factors``.
#: v3: the ``cell`` kind is gone; sweeps now replay from ``timing`` entries.
SCHEMA = "repro/diskcache/v3"

CACHE_DIR_ENV = "REPRO_CACHE_DIR"


# ----------------------------------------------------------------------
# KernelTiming <-> JSON
# ----------------------------------------------------------------------
def _access_to_json(s: AccessStats) -> list:
    return [s.instructions, s.transactions, s.requested_bytes,
            s.l1_filtered_transactions]


def _access_from_json(v: list) -> AccessStats:
    return AccessStats(int(v[0]), int(v[1]), int(v[2]), int(v[3]))


def timing_to_json(t: KernelTiming) -> Dict[str, Any]:
    """Serialize a :class:`KernelTiming` to a JSON-safe dict.

    Floats round-trip exactly through JSON (repr-based encoding), so a
    disk hit reproduces the in-process result bit for bit — the property
    the byte-identical-sweep CI check relies on.
    """
    st = t.stats
    return {
        "time_s": t.time_s,
        "bound_by": t.bound_by,
        "gpu_name": t.gpu_name,
        "breakdown": dict(t.breakdown),
        "factors": dict(t.factors),
        "stats": {
            "global_load": _access_to_json(st.global_load),
            "global_store": _access_to_json(st.global_store),
            "shared_load": _access_to_json(st.shared_load),
            "shared_store": _access_to_json(st.shared_store),
            "array_traffic": {
                name: [tr.sectors, tr.unique_bytes, bool(tr.reuse_is_local)]
                for name, tr in st.array_traffic.items()
            },
            "flops": st.flops,
            "alu_instructions": st.alu_instructions,
            "warp_syncs": st.warp_syncs,
            "block_syncs": st.block_syncs,
            "atomic_ops": st.atomic_ops,
        },
        "launch": [t.launch.blocks, t.launch.threads_per_block,
                   t.launch.regs_per_thread, t.launch.shared_mem_per_block],
        "occupancy": [t.occupancy.blocks_per_sm, t.occupancy.active_warps_per_sm,
                      t.occupancy.achieved, t.occupancy.limiter, t.occupancy.waves],
    }


def timing_from_json(d: Dict[str, Any]) -> KernelTiming:
    """Inverse of :func:`timing_to_json`."""
    sd = d["stats"]
    stats = KernelStats(
        global_load=_access_from_json(sd["global_load"]),
        global_store=_access_from_json(sd["global_store"]),
        shared_load=_access_from_json(sd["shared_load"]),
        shared_store=_access_from_json(sd["shared_store"]),
        array_traffic={
            name: ArrayTraffic(int(v[0]), int(v[1]), bool(v[2]))
            for name, v in sd["array_traffic"].items()
        },
        flops=int(sd["flops"]),
        alu_instructions=int(sd["alu_instructions"]),
        warp_syncs=int(sd["warp_syncs"]),
        block_syncs=int(sd["block_syncs"]),
        atomic_ops=int(sd["atomic_ops"]),
    )
    lb = d["launch"]
    ob = d["occupancy"]
    return KernelTiming(
        time_s=float(d["time_s"]),
        stats=stats,
        launch=LaunchConfig(int(lb[0]), int(lb[1]), int(lb[2]), int(lb[3])),
        occupancy=Occupancy(int(ob[0]), float(ob[1]), float(ob[2]),
                            str(ob[3]), float(ob[4])),
        breakdown={k: float(v) for k, v in d["breakdown"].items()},
        bound_by=str(d["bound_by"]),
        gpu_name=str(d["gpu_name"]),
        factors={k: float(v) for k, v in d["factors"].items()},
    )


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
class DiskCache:
    """Content-addressed JSON entry store under one root directory."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- bookkeeping ---------------------------------------------------
    def _count(self, what: str, kind: str) -> None:
        from repro import obs  # late: keep import cost off the cold path

        with self._lock:
            setattr(self, what, getattr(self, what) + 1)
        obs.get_registry().counter(f"diskcache.{what}", kind=kind).inc()

    def counters(self) -> Dict[str, int]:
        """Instance-lifetime hit/miss/invalidation counts (the
        ``run.host.diskcache`` block of ``BENCH_spmm.json``)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }

    # -- entry addressing ----------------------------------------------
    @staticmethod
    def _key_repr(kind: str, key: tuple) -> str:
        return repr((SCHEMA, kind, key))

    def _path(self, kind: str, key: tuple) -> Path:
        digest = hashlib.blake2b(
            self._key_repr(kind, key).encode(), digest_size=16
        ).hexdigest()
        return self.root / kind / digest[:2] / f"{digest}.json"

    # -- raw get/put ---------------------------------------------------
    def _get(self, kind: str, key: tuple) -> Optional[Any]:
        path = self._path(kind, key)
        try:
            doc = json.loads(path.read_text())
        except FileNotFoundError:
            self._count("misses", kind)
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._invalidate(path, kind)
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != SCHEMA
            or doc.get("key") != self._key_repr(kind, key)
            or "payload" not in doc
        ):
            self._invalidate(path, kind)
            return None
        self._count("hits", kind)
        return doc["payload"]

    def _invalidate(self, path: Path, kind: str) -> None:
        self._count("invalidations", kind)
        try:
            path.unlink()
        except OSError:
            pass

    def _put(self, kind: str, key: tuple, payload: Any) -> None:
        path = self._path(kind, key)
        doc = {"schema": SCHEMA, "kind": kind,
               "key": self._key_repr(kind, key), "payload": payload}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
            tmp.write_text(json.dumps(doc, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            # A cache must never fail the computation it accelerates.
            pass

    # -- typed views ----------------------------------------------------
    def get_timing(self, key: tuple) -> Optional[KernelTiming]:
        payload = self._get("timing", key)
        if payload is None:
            return None
        try:
            return timing_from_json(payload)
        except (KeyError, TypeError, ValueError, IndexError):
            self._invalidate(self._path("timing", key), "timing")
            return None

    def put_timing(self, key: tuple, timing: KernelTiming) -> None:
        self._put("timing", key, timing_to_json(timing))

    def get_shard(self, key: tuple) -> Optional[Dict[str, Any]]:
        """A completed corpus-sweep shard checkpoint, or None.

        The payload is validated structurally (``cells`` list of 6-item
        rows, ``stats`` dict) so a malformed checkpoint is invalidated
        and recomputed rather than poisoning a resumed roll-up.
        """
        payload = self._get("shard", key)
        if payload is None:
            return None
        if (
            isinstance(payload, dict)
            and isinstance(payload.get("cells"), list)
            and isinstance(payload.get("stats"), dict)
            and all(
                isinstance(c, list) and len(c) == 6 for c in payload["cells"]
            )
        ):
            return payload
        self._invalidate(self._path("shard", key), "shard")
        return None

    def put_shard(self, key: tuple, payload: Dict[str, Any]) -> None:
        self._put("shard", key, payload)

    # -- targeted invalidation -------------------------------------------
    def invalidate_matrix(self, fingerprint: str) -> int:
        """Remove every entry whose key references one matrix fingerprint.

        The dynamic-graph garbage collector (``repro.sparse.delta``):
        entry filenames are content-addressed digests, so the store is
        scanned and each entry's stored ``key`` repr is checked for the
        fingerprint (as a quoted string — fingerprints are 32-hex-char
        BLAKE2b digests, so an accidental match inside an unrelated key
        component is not a realistic collision).  Matching ``timing``
        entries are unlinked; ``shard`` checkpoints whose
        spec keys embed the print are dropped too, forcing those shards
        to recompute rather than replay stale cells.  Entries for every
        other matrix are untouched.  Returns the number removed, counted
        per kind under ``diskcache.targeted_invalidations``.
        """
        from repro import obs  # late: keep import cost off the cold path

        needle = repr(str(fingerprint))
        removed = 0
        registry = obs.get_registry()
        for f in list(self._entry_files()):
            try:
                doc = json.loads(f.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue  # corrupt entries are handled by the read path
            if not isinstance(doc, dict) or needle not in str(doc.get("key", "")):
                continue
            kind = f.relative_to(self.root).parts[0]
            try:
                f.unlink()
            except OSError:
                continue
            removed += 1
            registry.counter("diskcache.targeted_invalidations", kind=kind).inc()
        return removed

    # -- maintenance ----------------------------------------------------
    def _entry_files(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        for kind_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            yield from sorted(kind_dir.rglob("*.json"))

    def stats(self) -> Dict[str, Any]:
        """Entry counts and byte sizes — total, per kind, and per stored
        schema version.

        The schema breakdown reads each entry's ``"schema"`` field, so a
        directory carrying entries from before a ``SCHEMA`` bump shows
        exactly how many stale bytes a ``clear`` would reclaim.
        Unreadable or schema-less files are grouped under
        ``"(unreadable)"`` / ``"(missing)"``.
        """
        kinds: Dict[str, Dict[str, int]] = {}
        schemas: Dict[str, Dict[str, int]] = {}
        total_entries = total_bytes = 0
        for f in self._entry_files():
            kind = f.relative_to(self.root).parts[0]
            k = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
            size = f.stat().st_size
            k["entries"] += 1
            k["bytes"] += size
            try:
                doc = json.loads(f.read_text())
                schema = doc.get("schema") if isinstance(doc, dict) else None
                label = str(schema) if schema is not None else "(missing)"
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                label = "(unreadable)"
            s = schemas.setdefault(label, {"entries": 0, "bytes": 0})
            s["entries"] += 1
            s["bytes"] += size
            total_entries += 1
            total_bytes += size
        return {
            "root": str(self.root),
            "entries": total_entries,
            "bytes": total_bytes,
            "kinds": kinds,
            "schemas": schemas,
        }

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed.  Only
        entry files and then-empty directories are touched, so pointing
        this at the wrong directory cannot eat unrelated data."""
        removed = 0
        for f in list(self._entry_files()):
            try:
                f.unlink()
                removed += 1
            except OSError:
                pass
        # Prune now-empty subdirectories, deepest first.
        if self.root.is_dir():
            for d in sorted((p for p in self.root.rglob("*") if p.is_dir()),
                            key=lambda p: len(p.parts), reverse=True):
                try:
                    d.rmdir()
                except OSError:
                    pass
        return removed


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_ACTIVE: Optional[DiskCache] = None
_ENV_CACHE: Optional[DiskCache] = None
_STATE_LOCK = threading.Lock()


def set_disk_cache(cache: Optional[DiskCache]) -> Optional[DiskCache]:
    """Install ``cache`` as the process-wide disk cache (None disables
    explicit activation); returns the previous setting."""
    global _ACTIVE
    with _STATE_LOCK:
        prev = _ACTIVE
        _ACTIVE = cache
    return prev


def get_disk_cache() -> Optional[DiskCache]:
    """The active disk cache: the one installed via
    :func:`set_disk_cache`, else one rooted at ``$REPRO_CACHE_DIR`` when
    that is set, else None (caching off — the default)."""
    global _ENV_CACHE
    with _STATE_LOCK:
        if _ACTIVE is not None:
            return _ACTIVE
        root = os.environ.get(CACHE_DIR_ENV)
        if not root:
            return None
        if _ENV_CACHE is None or str(_ENV_CACHE.root) != root:
            _ENV_CACHE = DiskCache(root)
        return _ENV_CACHE


@contextmanager
def use_disk_cache(cache: Optional[DiskCache]) -> Iterator[Optional[DiskCache]]:
    """Scoped :func:`set_disk_cache` (tests, CLI commands)."""
    prev = set_disk_cache(cache)
    try:
        yield cache
    finally:
        set_disk_cache(prev)
