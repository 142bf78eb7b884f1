"""Runtime invariant sanitizer: the holder of the run-time contracts.

Version bumps and cache coherence are held here, on the objects a real
run actually builds, and nowhere else; ``tools/replint`` keeps only the
contracts no run can observe (see ``docs/STATIC_ANALYSIS.md``).  Enable it
with ``REPRO_SANITIZE=1`` in the environment or ``--sanitize`` on the CLI;
when disabled (the default) nothing here is imported into the hot path and
no wrapper exists anywhere.

What it checks
==============

* **Epoch monotonicity / mutate-implies-bump.**  Every structural mutator
  of :class:`~repro.topology.soa.ArrayOverlay` (``add_peer``,
  ``remove_peer``, ``connect``, ``disconnect``) must leave ``epoch`` no
  smaller than it found it, and a mutation that reports a change must have
  bumped it.  :class:`~repro.core.ace.AceProtocol` state writes
  (``_write_labels``, ``step``) owe the same to ``state_version``.
* **Array-lowered ACE forwarding graphs.**  Every graph
  :mod:`repro.search.batch` lowers from the array engine's CSR and its link
  labels is recompiled row by row from
  :meth:`~repro.core.ace.AceProtocol.flooding_neighbors` — the reference —
  and must equal it field for field.
* **Partial-row costs.**  Every cost ``ArrayOverlay.cost`` / ``costs_from``
  is served from the exact oracle's partial rows
  (:meth:`ExactOracle.delay_pairs <repro.oracle.exact.ExactOracle.delay_pairs>`
  copies them out of the vectors it streams) is compared with the
  underlay's vector for that source.
* **RNG stream ledger** (the run-time side of replint's REP009, which
  checks spawn order statically).  Generators handed out by
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


def reset() -> None:
    """Clear recorded violations and ledgers (hooks stay installed)."""
    _STATE.violations.clear()
    _STATE.rng_draws.clear()
    _STATE.rng_derivations.clear()
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
    if not _STATE.reported and _STATE.violations:
        report(sys.stderr)


# ----------------------------------------------------------------------
# Epoch / state-version monotonicity
# ----------------------------------------------------------------------

def _wrap_versioned(
    cls: type,
    name: str,
    version_attr: str,
    *,
    changed: Optional[Callable[[Any, Any], bool]] = None,
) -> None:
    """Patch ``cls.name`` with monotonicity (+ optional bump) checks.

    *changed(result, self)* decides whether the call mutated structure and
    therefore owes a version bump.
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
        return result

    setattr(cls, name, checked)


def _always_changed(result: Any, self: Any) -> bool:
    # None-returning mutators (add_peer/remove_peer) raise on no-op input,
    # so a normal return always means the structure changed.
    return True


def _truthy_changed(result: Any, self: Any) -> bool:
    return bool(result)


def _install_soa_hooks() -> None:
    from .topology.soa import ArrayOverlay

    _wrap_versioned(ArrayOverlay, "add_peer", "_epoch", changed=_always_changed)
    _wrap_versioned(
        ArrayOverlay, "remove_peer", "_epoch", changed=_always_changed
    )
    _wrap_versioned(ArrayOverlay, "connect", "_epoch", changed=_truthy_changed)
    _wrap_versioned(
        ArrayOverlay, "disconnect", "_epoch", changed=_truthy_changed
    )


def _install_ace_hooks() -> None:
    from .core.ace import AceProtocol

    # Every label write goes through _write_labels and must bump the
    # version; a whole step() may never move it backwards — monotonicity
    # alone checks that.
    _wrap_versioned(
        AceProtocol, "_write_labels", "_state_version", changed=_always_changed
    )
    _wrap_versioned(AceProtocol, "step", "_state_version")


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
# Partial-row costs vs. the vectors they were copied from
# ----------------------------------------------------------------------

def _install_partial_row_hooks() -> None:
    from .oracle.exact import ExactOracle
    from .perf import counters
    from .topology.soa import ArrayOverlay

    served: List[Tuple[Any, int, List[int], np.ndarray]] = []
    read = ExactOracle._read_partial

    @functools.wraps(read)
    def recorded(self, source, targets):
        values = read(self, source, targets)
        if values is not None:
            served.append((self, source, list(targets), values))
        return values

    def checked(lookup):
        # The overlay asking knows the peers and the epoch a report names.
        @functools.wraps(lookup)
        def boundary(self, *args):
            served.clear()
            result = lookup(self, *args)
            for oracle, hu, hosts, values in served:
                # The reference is solved off to the side — not retained,
                # its counter traffic rolled back — so neither the LRU nor
                # --perf moves.
                before = counters.copy()
                vector = oracle.physical.delays_from_many([hu])[hu]
                counters.reset()
                counters.merge(before.snapshot())
                for ht, got, want in zip(hosts, values.tolist(), vector[hosts].tolist()):
                    if got != want:
                        peers = [p for p in self.peers() if self.host_of(p) == hu]
                        record(
                            f"ExactOracle partial row: peer(s) {peers} read "
                            f"{got!r} for host pair ({hu}, {ht}), the oracle "
                            f"says {want!r} (epoch {self.epoch})"
                        )
            served.clear()
            return result

        return boundary

    ExactOracle._read_partial = recorded
    for name in ("cost", "costs_from"):
        setattr(ArrayOverlay, name, checked(vars(ArrayOverlay)[name]))


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
    _install_soa_hooks()
    _install_ace_hooks()
    _install_search_hooks()
    _install_partial_row_hooks()
    _install_rng_hooks()
    atexit.register(_atexit_report)


def maybe_install() -> bool:
    """Install iff ``REPRO_SANITIZE`` asks for it; returns installed()."""
    if enabled():
        install()
    return _STATE.installed
