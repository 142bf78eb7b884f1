"""Persistence for experiment results: typed JSON round-trips.

Long experiment runs (the depth sweep takes minutes at paper scale) should
be computed once and re-analyzed many times.  This module serializes every
experiment result type to a versioned JSON document and restores it to the
original dataclass:

* :class:`~repro.experiments.static_env.StaticSeries`
* :class:`~repro.experiments.dynamic_env.DynamicSeries`
* :class:`~repro.experiments.depth_sweep.DepthSweepResult`
* :class:`~repro.metrics.optimization.OptimizationTradeoff`
* :class:`~repro.topology.properties.TopologyReport`

The CLI's ``--json`` flag and the examples use :func:`save_result` /
:func:`load_result`; documents carry a ``kind`` tag and a format version so
old files fail loudly instead of deserializing wrongly.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Union

from ..metrics.optimization import OptimizationTradeoff
from ..topology.properties import TopologyReport
from .depth_sweep import DepthSweepResult
from .dynamic_env import DynamicSeries
from .static_env import StaticSeries

__all__ = ["FORMAT_VERSION", "to_document", "from_document", "save_result", "load_result"]

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 1


def _encode_static(series: StaticSeries) -> Dict[str, Any]:
    return asdict(series)


def _decode_static(data: Dict[str, Any]) -> StaticSeries:
    return StaticSeries(**data)


def _encode_dynamic(series: DynamicSeries) -> Dict[str, Any]:
    return asdict(series)


def _decode_dynamic(data: Dict[str, Any]) -> DynamicSeries:
    return DynamicSeries(**data)


def _encode_tradeoff(t: OptimizationTradeoff) -> Dict[str, Any]:
    return asdict(t)


def _decode_tradeoff(data: Dict[str, Any]) -> OptimizationTradeoff:
    return OptimizationTradeoff(**data)


def _encode_sweep(sweep: DepthSweepResult) -> Dict[str, Any]:
    return {
        "tradeoffs": [
            {"degree": c, "depth": h, "value": _encode_tradeoff(t)}
            for (c, h), t in sorted(sweep.tradeoffs.items())
        ]
    }


def _decode_sweep(data: Dict[str, Any]) -> DepthSweepResult:
    result = DepthSweepResult()
    for entry in data["tradeoffs"]:
        key = (int(entry["degree"]), int(entry["depth"]))
        result.tradeoffs[key] = _decode_tradeoff(entry["value"])
    return result


def _encode_topology_report(report: TopologyReport) -> Dict[str, Any]:
    return asdict(report)


def _decode_topology_report(data: Dict[str, Any]) -> TopologyReport:
    return TopologyReport(**data)


_CODECS: Dict[str, tuple] = {
    "static_series": (StaticSeries, _encode_static, _decode_static),
    "dynamic_series": (DynamicSeries, _encode_dynamic, _decode_dynamic),
    "depth_sweep": (DepthSweepResult, _encode_sweep, _decode_sweep),
    "optimization_tradeoff": (
        OptimizationTradeoff, _encode_tradeoff, _decode_tradeoff,
    ),
    "topology_report": (
        TopologyReport, _encode_topology_report, _decode_topology_report,
    ),
}


def to_document(result: Any, metadata: Dict[str, Any] = None) -> Dict[str, Any]:
    """Wrap a result object in a tagged, versioned JSON-ready document."""
    for kind, (cls, encode, _decode) in _CODECS.items():
        if isinstance(result, cls):
            return {
                "format_version": FORMAT_VERSION,
                "kind": kind,
                "metadata": dict(metadata or {}),
                "data": encode(result),
            }
    raise TypeError(f"cannot serialize result of type {type(result).__name__}")


def from_document(document: Dict[str, Any]) -> Any:
    """Restore the result object from a document made by :func:`to_document`."""
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    kind = document.get("kind")
    if kind not in _CODECS:
        raise ValueError(f"unknown result kind {kind!r}")
    _cls, _encode, decode = _CODECS[kind]
    return decode(document["data"])


def save_result(
    result: Any,
    path: Union[str, Path],
    metadata: Dict[str, Any] = None,
) -> Path:
    """Serialize a result to a JSON file; returns the path written."""
    path = Path(path)
    document = to_document(result, metadata=metadata)
    with path.open("w", encoding="utf-8") as f:
        json.dump(document, f, indent=2, sort_keys=True)
    return path


def load_result(path: Union[str, Path]) -> Any:
    """Load a result previously written by :func:`save_result`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as f:
        document = json.load(f)
    return from_document(document)
