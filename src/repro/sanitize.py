"""Runtime invariant sanitizer: dynamic twin of the replint program rules.

``tools/replint`` proves the repository's reproducibility contracts
*statically* (REP009–REP012); this module asserts the same contracts
*dynamically*, on the objects a real run actually builds.  Enable it with
``REPRO_SANITIZE=1`` in the environment or ``--sanitize`` on the CLI; when
disabled (the default) nothing here is imported into the hot path and no
wrapper exists anywhere.

What it checks
==============

* **Epoch monotonicity / mutate-implies-bump** (REP011's contract).  Every
  structural mutator of :class:`~repro.topology.overlay.Overlay` and
  :class:`~repro.topology.soa.ArrayOverlay` must leave ``epoch`` no smaller
  than it found it, and a mutation that reports a change must have bumped
  it.  :class:`~repro.core.ace.AceProtocol` state writes owe the same to
  ``state_version``.
* **Cache coherence on invalidation.**  ``_edge_costs`` holds live logical
  edges only, so ``disconnect``/``remove_peer`` must leave no stale entry
  behind and ``invalidate_edge_costs`` must leave the cache empty.
* **Array-lowered ACE forwarding graphs.**  Every graph
  :mod:`repro.search.batch` lowers from the array engine's CSR and the flat
  state store is recompiled row by row from
  :meth:`~repro.core.ace.AceProtocol.flooding_neighbors` — the reference —
  and must equal it field for field.
* **Probe-memo costs.**  Every cost the array engine serves from the
  directional probe memo (:meth:`ArrayOverlay.warm_edge_costs
  <repro.topology.soa.ArrayOverlay.warm_edge_costs>` copies them out of the
  vectors it streams) is compared with the oracle's vector for that source.
* **Shared-memory leak accounting** (REP010's contract).  Every
  :class:`~repro.topology.shm.SharedSegments` owner must be unlinked
  explicitly (context manager or ``finally``); segments that survive to the
  ``atexit`` backstop were leaked by their owner and are reported.
* **RNG stream ledger** (REP009's contract).  Generators handed out by
  :func:`repro.rng.ensure_rng` / :func:`repro.rng.derive_rng` are wrapped
  to count draws per seed stream, and deriving the *same* ``(seed,
  stream)`` twice in one process — which would replay correlated draws —
  is a violation.

Sanitized runs are **byte-identical** to unsanitized ones: every wrapper
forwards arguments and results untouched, the ledgered generators share the
original bit generator, and all accounting is on the side.  Violations are
collected (not raised), printed to ``stderr`` at exit, and surfaced to the
CLI so ``repro --sanitize`` can fail the process without perturbing the
metrics stream on ``stdout``.
"""

from __future__ import annotations

import atexit
import functools
import os
import sys
import weakref
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "enabled",
    "maybe_install",
    "install",
    "installed",
    "record",
    "violations",
    "violation_count",
    "rng_ledger",
    "shm_ledger",
    "report",
    "reset",
]

_TRUTHY = ("1", "true", "yes", "on")


def enabled() -> bool:
    """Is the sanitizer requested via the ``REPRO_SANITIZE`` knob?"""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


class _State:
    """Process-wide sanitizer accounting (violations plus ledgers)."""

    def __init__(self) -> None:
        self.installed = False
        self.reported = False
        self.violations: List[str] = []
        #: draws per RNG stream key, e.g. ``("derive", 7, 2) -> 143``.
        self.rng_draws: Counter = Counter()
        #: generator instantiations per stream key.
        self.rng_derivations: Counter = Counter()
        #: live SharedSegments owners: id -> (weakref, description, pid).
        self.shm_owners: Dict[int, Tuple[Any, str, int]] = {}
        self.shm_created = 0
        self.shm_unlinked = 0


_STATE = _State()


def record(message: str) -> None:
    """Register one violation (collected, never raised)."""
    _STATE.violations.append(message)


def violations() -> List[str]:
    """The violations recorded so far (a copy)."""
    return list(_STATE.violations)


def violation_count() -> int:
    """How many violations have been recorded so far."""
    return len(_STATE.violations)


def rng_ledger() -> Dict[Tuple, Dict[str, int]]:
    """Per-stream accounting: ``{key: {"derivations": n, "draws": m}}``."""
    keys = set(_STATE.rng_derivations) | set(_STATE.rng_draws)
    return {
        key: {
            "derivations": _STATE.rng_derivations[key],
            "draws": _STATE.rng_draws[key],
        }
        for key in sorted(keys, key=repr)
    }


def shm_ledger() -> Dict[str, int]:
    """Segment-owner accounting: created / explicitly unlinked / live."""
    live = sum(1 for ref, _, _ in _STATE.shm_owners.values() if ref() is not None)
    return {
        "created": _STATE.shm_created,
        "unlinked": _STATE.shm_unlinked,
        "live": live,
    }


def reset() -> None:
    """Clear recorded violations and ledgers (hooks stay installed)."""
    _STATE.violations.clear()
    _STATE.rng_draws.clear()
    _STATE.rng_derivations.clear()
    _STATE.shm_owners.clear()
    _STATE.shm_created = 0
    _STATE.shm_unlinked = 0
    _STATE.reported = False


def installed() -> bool:
    """Have the hooks been installed in this process?"""
    return _STATE.installed


def report(out=None) -> int:
    """Print violations (if any) and return their count."""
    out = out or sys.stderr
    _STATE.reported = True
    if _STATE.violations:
        print(f"sanitize: {len(_STATE.violations)} violation(s)", file=out)
        for message in _STATE.violations:
            print(f"sanitize: {message}", file=out)
    return len(_STATE.violations)


def _atexit_report() -> None:
    # Runs after every SharedSegments backstop (those registered later,
    # hence earlier in atexit's LIFO order), so leak accounting is final.
    _finalize_shm_accounting()
    if not _STATE.reported and _STATE.violations:
        report(sys.stderr)


# ----------------------------------------------------------------------
# Epoch / state-version monotonicity and cache-coherence shadow checks
# ----------------------------------------------------------------------

def _wrap_versioned(
    cls: type,
    name: str,
    version_attr: str,
    *,
    changed: Optional[Callable[[Any, Any], bool]] = None,
    shadow: Optional[Callable[[Any, tuple], None]] = None,
) -> None:
    """Patch ``cls.name`` with monotonicity (+ optional bump/shadow) checks.

    *changed(result, self)* decides whether the call mutated structure and
    therefore owes a version bump; *shadow(self, args)* runs extra
    read-only coherence checks after a successful call.
    """
    orig = cls.__dict__[name]

    @functools.wraps(orig)
    def checked(self, *args, **kwargs):
        before = getattr(self, version_attr)
        result = orig(self, *args, **kwargs)
        after = getattr(self, version_attr)
        where = f"{cls.__name__}.{name}"
        if after < before:
            record(
                f"{where}: {version_attr} went backwards ({before} -> {after})"
            )
        if changed is not None and changed(result, self) and after == before:
            record(
                f"{where}: structure changed but {version_attr} "
                f"stayed at {before}"
            )
        if shadow is not None:
            shadow(self, args)
        return result

    setattr(cls, name, checked)


def _always_changed(result: Any, self: Any) -> bool:
    # None-returning mutators (add_peer/remove_peer) raise on no-op input,
    # so a normal return always means the structure changed.
    return True


def _truthy_changed(result: Any, self: Any) -> bool:
    return bool(result)


def _install_overlay_hooks() -> None:
    from .topology.overlay import Overlay

    def disconnect_shadow(self: Any, args: tuple) -> None:
        u, v = args[0], args[1]
        # replint: disable=REP002 — read-only shadow check of the contract
        if ((u, v) if u < v else (v, u)) in self._edge_costs:
            record(
                f"Overlay.disconnect({u}, {v}): stale _edge_costs entry "
                "survived the cut"
            )

    def remove_peer_shadow(self: Any, args: tuple) -> None:
        peer = args[0]
        # replint: disable=REP002 — read-only shadow check of the contract
        stale = [key for key in self._edge_costs if peer in key]
        if stale:
            record(
                f"Overlay.remove_peer({peer}): {len(stale)} stale "
                f"_edge_costs entr{'y' if len(stale) == 1 else 'ies'} "
                "survived removal"
            )

    def invalidate_shadow(self: Any, args: tuple) -> None:
        # replint: disable=REP002 — read-only shadow check of the contract
        if self._edge_costs:
            record(
                "Overlay.invalidate_edge_costs: cache non-empty after "
                "invalidation"
            )

    _wrap_versioned(Overlay, "add_peer", "_epoch", changed=_always_changed)
    _wrap_versioned(
        Overlay, "remove_peer", "_epoch",
        changed=_always_changed, shadow=remove_peer_shadow,
    )
    _wrap_versioned(Overlay, "connect", "_epoch", changed=_truthy_changed)
    _wrap_versioned(
        Overlay, "disconnect", "_epoch",
        changed=_truthy_changed, shadow=disconnect_shadow,
    )
    _wrap_versioned(
        Overlay, "invalidate_edge_costs", "_epoch", shadow=invalidate_shadow
    )


def _install_soa_hooks() -> None:
    from .topology.soa import ArrayOverlay

    def invalidate_shadow(self: Any, args: tuple) -> None:
        if self.cached_edge_costs() != 0:
            record(
                "ArrayOverlay.invalidate_edge_costs: "
                f"{self.cached_edge_costs()} cached cost(s) survived "
                "invalidation"
            )

    _wrap_versioned(ArrayOverlay, "add_peer", "_epoch", changed=_always_changed)
    _wrap_versioned(
        ArrayOverlay, "remove_peer", "_epoch", changed=_always_changed
    )
    _wrap_versioned(ArrayOverlay, "connect", "_epoch", changed=_truthy_changed)
    _wrap_versioned(
        ArrayOverlay, "disconnect", "_epoch", changed=_truthy_changed
    )
    _wrap_versioned(
        ArrayOverlay, "invalidate_edge_costs", "_epoch",
        shadow=invalidate_shadow,
    )


def _install_ace_hooks() -> None:
    from .core.ace import AceProtocol

    # _store_state always (re)writes a peer entry; the churn handlers bump
    # iff they actually dropped state, which monotonicity alone checks.
    _wrap_versioned(
        AceProtocol, "_store_state", "_state_version", changed=_always_changed
    )
    # The batched kernel bypasses _store_state and writes through _put_flat;
    # it must bump the version on every write just like the scalar path, and
    # a whole step() may never move the version backwards.
    _wrap_versioned(
        AceProtocol, "_put_flat", "_state_version", changed=_always_changed
    )
    _wrap_versioned(AceProtocol, "step", "_state_version")
    _wrap_versioned(AceProtocol, "handle_peer_joined", "_state_version")
    _wrap_versioned(AceProtocol, "handle_peer_left", "_state_version")


# ----------------------------------------------------------------------
# Array-lowered ACE forwarding graph vs. the row-by-row reference
# ----------------------------------------------------------------------

def _first_difference(graph: Any, reference: Any) -> Optional[str]:
    """Where two compiled graphs part ways (``None`` when byte-identical)."""
    if graph.peer_ids.tobytes() != reference.peer_ids.tobytes():
        return "the peer set"

    def row(g: Any, i: int) -> Tuple[bytes, bytes]:
        s, e = g.indptr[i], g.indptr[i + 1]
        return g.targets[s:e].tobytes(), g.costs[s:e].tobytes()

    for i, peer in enumerate(graph.peer_ids.tolist()):
        if row(graph, i) != row(reference, i):
            return f"peer {peer}"
    return None


def _install_search_hooks() -> None:
    from .perf import counters
    from .search import batch

    lower = batch._lower_arrays

    @functools.wraps(lower)
    def checked(overlay, kind, protocol=None):
        graph = lower(overlay, kind, protocol)
        if protocol is None:
            return graph
        # The reference counts a compile and probes the cost cache per row;
        # neither belongs to the run being watched.
        before = counters.copy()
        reference = batch.ace_graph_by_rows(overlay, protocol)
        counters.reset()
        counters.merge(before.snapshot())
        where = _first_difference(graph, reference)
        if where is not None:
            record(
                "compile_strategy(ace): array-lowered graph differs from the "
                f"row-by-row reference at {where} (epoch {overlay.epoch}, "
                f"state version {protocol.state_version})"
            )
        return graph

    batch._lower_arrays = checked


# ----------------------------------------------------------------------
# Probe-memo costs vs. the vectors they were copied from
# ----------------------------------------------------------------------

def _install_probe_memo_hooks() -> None:
    from .perf import counters
    from .topology.soa import ArrayOverlay

    served = ArrayOverlay._memo_values

    @functools.wraps(served)
    def checked(self, hu, hosts):
        values = served(self, hu, hosts)
        if values is None:
            return None
        # The reference is read off to the side — a resident vector in
        # place, a missing one solved without being retained, its counter
        # traffic rolled back — so neither the LRU nor --perf moves.
        # replint: disable=REP002 — read-only shadow check of the contract
        vector = self.physical._dist_cache.get(hu)
        if vector is None:
            before = counters.copy()
            vector = self.oracle.delays_from_many([hu], cache=False)[hu]
            counters.reset()
            counters.merge(before.snapshot())
        for ht, got, want in zip(hosts, values.tolist(), vector[hosts].tolist()):
            if got != want:
                peers = [p for p in self.peers() if self.host_of(p) == hu]
                record(
                    f"ArrayOverlay probe memo: peer(s) {peers} read "
                    f"{got!r} for host pair ({hu}, {ht}), the oracle says "
                    f"{want!r} (epoch {self.epoch})"
                )
        return values

    ArrayOverlay._memo_values = checked


# ----------------------------------------------------------------------
# Shared-memory leak accounting
# ----------------------------------------------------------------------

def _install_shm_hooks() -> None:
    from .topology import shm

    orig_init = shm.SharedSegments.__init__
    orig_unlink = shm.SharedSegments.unlink
    orig_backstop = shm.SharedSegments._atexit_unlink

    @functools.wraps(orig_init)
    def init(self, handle, segments):
        orig_init(self, handle, segments)
        _STATE.shm_created += 1
        _STATE.shm_owners[id(self)] = (
            weakref.ref(self),
            f"{type(self).__name__}({len(segments)} segment(s))",
            os.getpid(),
        )

    @functools.wraps(orig_unlink)
    def unlink(self):
        if not self._unlinked and os.getpid() == self._owner_pid:
            _STATE.shm_unlinked += 1
            _STATE.shm_owners.pop(id(self), None)
        orig_unlink(self)

    @functools.wraps(orig_backstop)
    def backstop(self):
        if not self._unlinked and os.getpid() == self._owner_pid:
            entry = _STATE.shm_owners.get(id(self))
            what = entry[1] if entry else type(self).__name__
            record(
                f"shm: {what} reached the atexit backstop without an "
                "explicit unlink (owner leaked it)"
            )
        orig_backstop(self)

    shm.SharedSegments.__init__ = init
    shm.SharedSegments.unlink = unlink
    shm.SharedSegments._atexit_unlink = backstop


def _finalize_shm_accounting() -> None:
    """Flag owners that never unlinked at all (not even the backstop)."""
    pid = os.getpid()
    for ref, what, owner_pid in list(_STATE.shm_owners.values()):
        obj = ref()
        if obj is None or owner_pid != pid:
            continue
        if not obj._unlinked:
            record(f"shm: {what} still linked at interpreter exit")


# ----------------------------------------------------------------------
# RNG stream ledger
# ----------------------------------------------------------------------

#: Generator methods that consume the stream.  Wrapping these is enough to
#: account for every draw this repository makes; exotic distributions fall
#: through uncounted but still come from the same (shared) bit generator.
_DRAW_METHODS = (
    "random",
    "integers",
    "choice",
    "shuffle",
    "permutation",
    "permuted",
    "bytes",
    "normal",
    "standard_normal",
    "uniform",
    "exponential",
    "poisson",
    "binomial",
    "geometric",
)


def _make_ledger_generator() -> type:
    class _LedgerGenerator(np.random.Generator):
        """Counts draws per seed stream; numerically a plain Generator."""

        _ledger_key: Tuple = ("unkeyed",)

    def _counted(name: str):
        orig = getattr(np.random.Generator, name)

        @functools.wraps(orig)
        def method(self, *args, **kwargs):
            _STATE.rng_draws[self._ledger_key] += 1
            return orig(self, *args, **kwargs)

        return method

    for name in _DRAW_METHODS:
        if hasattr(np.random.Generator, name):
            setattr(_LedgerGenerator, name, _counted(name))
    return _LedgerGenerator


def _seed_token(seed: Any) -> Any:
    """A hashable, stable token for an int or SeedSequence seed."""
    if isinstance(seed, np.random.SeedSequence):
        return ("seedseq", repr(seed.entropy), tuple(seed.spawn_key))
    return seed


def _install_rng_hooks() -> None:
    from . import rng as rng_module

    ledger_cls = _make_ledger_generator()

    def ledgered(base: np.random.Generator, key: Tuple) -> np.random.Generator:
        # Same BitGenerator instance -> byte-identical draw stream.
        wrapped = ledger_cls(base.bit_generator)
        wrapped._ledger_key = key
        _STATE.rng_derivations[key] += 1
        return wrapped

    orig_ensure = rng_module.ensure_rng
    orig_derive = rng_module.derive_rng

    @functools.wraps(orig_ensure)
    def ensure_rng(rng=None, seed=rng_module.DEFAULT_SEED):
        if rng is not None:
            return orig_ensure(rng, seed)
        return ledgered(orig_ensure(None, seed), ("ensure", _seed_token(seed)))

    @functools.wraps(orig_derive)
    def derive_rng(seed, stream=0):
        key = ("derive", _seed_token(seed), stream)
        if _STATE.rng_derivations[key]:
            record(
                f"rng: stream (seed={seed!r}, stream={stream}) derived "
                "again in this process; draws would repeat the earlier "
                "stream verbatim"
            )
        return ledgered(orig_derive(seed, stream), key)

    # Rebind in repro.rng *and* in every module that imported the
    # functions by name before the sanitizer was installed.
    for wrapped, orig in ((ensure_rng, orig_ensure), (derive_rng, orig_derive)):
        setattr(rng_module, wrapped.__name__, wrapped)
        for mod in list(sys.modules.values()):
            if mod is None or mod is rng_module:
                continue
            try:
                hit = getattr(mod, wrapped.__name__, None) is orig
            except Exception:  # pragma: no cover - exotic module proxies
                continue
            if hit:
                setattr(mod, wrapped.__name__, wrapped)


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def install() -> None:
    """Install every hook (idempotent; survives repeated calls)."""
    if _STATE.installed:
        return
    _STATE.installed = True
    _install_overlay_hooks()
    _install_soa_hooks()
    _install_ace_hooks()
    _install_search_hooks()
    _install_probe_memo_hooks()
    _install_shm_hooks()
    _install_rng_hooks()
    atexit.register(_atexit_report)


def maybe_install() -> bool:
    """Install iff ``REPRO_SANITIZE`` asks for it; returns installed()."""
    if enabled():
        install()
    return _STATE.installed
