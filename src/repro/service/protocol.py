"""Versioned wire protocol for solve requests, outcomes and solutions.

Every journaled experiment cell — and everything a cell produces — is
expressible as a portable, versioned JSON artifact that any worker can
replay bit-identically:

* :class:`~repro.batch.planner.SolveRequest` cells, each naming its
  model by a :class:`~repro.batch.scenarios.Scenario`,
* :class:`~repro.batch.scenarios.Scenario` specs,
* :class:`~repro.markov.base.TransientSolution` results,
* :class:`~repro.batch.runner.BatchOutcome` envelopes, including
  **structured failures** (exception type / message / traceback as plain
  strings — never live exception objects), so failed cells survive a
  journal round-trip exactly like successful ones.

Wire form
---------
Each object maps to a dict carrying ``"schema_version"`` (an integer —
decoding a different version raises :class:`ProtocolError`, never a
silent misparse) and a ``"kind"`` tag its decoder checks. Each type has
its own encoder/decoder pair (``request_to_dict``/``request_from_dict``
and so on), which :class:`~repro.service.queue.JobQueue` calls directly.
Floats ride through JSON via Python's shortest-roundtrip ``repr`` and are
therefore **bit-exact**; tuples (request keys, scenario params, solver
kwargs) are preserved against JSON's list coercion with a ``{"__tuple__":
[...]}`` tag, because request identity — and with it planner coalescing
and fusion — must be indistinguishable between a live object and its
decoded twin.

The codec is deliberately strict: values that are not plain data (or one
of the protocol types) raise :class:`ProtocolError` at *encode* time, so
a request that cannot be replayed elsewhere is rejected before it ever
reaches a journal.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.batch.planner import SolveRequest
from repro.batch.runner import BatchOutcome
from repro.batch.scenarios import Scenario
from repro.exceptions import ProtocolError, UnknownMethodError
from repro.markov.base import TransientSolution
from repro.markov.rewards import Measure

__all__ = [
    "SCHEMA_VERSION",
    "ProtocolError",
    "request_to_dict",
    "request_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
    "solution_to_dict",
    "solution_from_dict",
    "scenario_to_dict",
    "scenario_from_dict",
]

#: Wire schema version. Bump on any change to the dict layouts below;
#: decoders accept exactly this version.
SCHEMA_VERSION = 1

_TUPLE_TAG = "__tuple__"


# -- plain-data codec ------------------------------------------------------

def _encode_plain(value: Any, *, where: str) -> Any:
    """JSON-safe form of identity-bearing plain data (keys, params,
    solver kwargs). Tuples are tagged so decoding restores them exactly;
    numpy scalars collapse to their Python equivalents."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, Measure):
        return {"__measure__": value.value}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode_plain(v, where=where) for v in value]}
    if isinstance(value, list):
        return [_encode_plain(v, where=where) for v in value]
    if isinstance(value, Mapping):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ProtocolError(
                    f"{where}: mapping keys must be strings, got {k!r}")
            out[k] = _encode_plain(v, where=where)
        return out
    raise ProtocolError(
        f"{where}: {type(value).__name__} is not wire-serializable "
        "(plain data only)")


def _decode_plain(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(_decode_plain(v) for v in value[_TUPLE_TAG])
        if set(value) == {"__measure__"}:
            return _measure_from(value["__measure__"])
        return {k: _decode_plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode_plain(v) for v in value]
    return value


def _jsonify_stats(value: Any, *, where: str) -> Any:
    """Lossy-but-faithful form of diagnostic stats: numpy arrays become
    lists (stats are not identity-bearing, so no tuple tagging)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (tuple, list)):
        return [_jsonify_stats(v, where=where) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonify_stats(v, where=where)
                for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ProtocolError(
        f"{where}: {type(value).__name__} is not wire-serializable")


# -- envelope helpers ------------------------------------------------------

def _envelope(kind: str, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **payload}


def _expect(data: Any, kind: str) -> dict:
    if not isinstance(data, Mapping):
        raise ProtocolError(f"expected a dict for {kind!r}, "
                            f"got {type(data).__name__}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ProtocolError(
            f"schema_version {version!r} is not supported "
            f"(this codec speaks version {SCHEMA_VERSION})")
    if data.get("kind") != kind:
        raise ProtocolError(
            f"expected kind {kind!r}, got {data.get('kind')!r}")
    return dict(data)


def _field(data: Mapping, name: str, kind: str) -> Any:
    try:
        return data[name]
    except KeyError:
        raise ProtocolError(f"{kind} record is missing field {name!r}") \
            from None


def _measure_from(tag: Any) -> Measure:
    try:
        return Measure(tag)
    except ValueError:
        raise ProtocolError(f"unknown measure tag {tag!r}") from None


# -- scenarios -------------------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    """Wire form of a scenario spec (registry key + plain params)."""
    return _envelope("scenario", {
        "name": scenario.name,
        "family": scenario.family,
        "params": _encode_plain(dict(scenario.params),
                                where=f"scenario {scenario.name!r} params"),
        "measure": scenario.measure.value,
        "times": [float(t) for t in scenario.times],
        "eps": float(scenario.eps),
    })


def scenario_from_dict(data: Mapping) -> Scenario:
    d = _expect(data, "scenario")
    return Scenario(
        name=_field(d, "name", "scenario"),
        family=_field(d, "family", "scenario"),
        params=_decode_plain(_field(d, "params", "scenario")),
        measure=_measure_from(_field(d, "measure", "scenario")),
        times=tuple(float(t) for t in _field(d, "times", "scenario")),
        eps=float(_field(d, "eps", "scenario")))


# -- requests --------------------------------------------------------------

def request_to_dict(request: SolveRequest) -> dict:
    """Wire form of one declarative solve cell: its scenario description
    (the worker rebuilds the model). ``"model"`` and ``"rewards"`` are
    always null; the layout is schema version 1's."""
    return _envelope("solve_request", {
        "measure": request.measure.value,
        "times": [float(t) for t in request.times],
        "eps": float(request.eps),
        "method": request.method,
        "scenario": scenario_to_dict(request.scenario),
        "model": None,
        "rewards": None,
        "solver_kwargs": _encode_plain(dict(request.solver_kwargs),
                                       where="request solver_kwargs"),
        "key": _encode_plain(request.key, where="request key"),
    })


def request_from_dict(data: Mapping) -> SolveRequest:
    d = _expect(data, "solve_request")
    for name in ("model", "rewards"):
        if _field(d, name, "solve_request") is not None:
            raise ProtocolError(
                f"solve_request: a record with a {name!r} payload is not "
                "decoded; a request names its model and rewards by its "
                "scenario")
    method = _field(d, "method", "solve_request")
    # SolveRequest checks the method against the solver registry; a
    # journal written by a newer/older deployment then fails as a
    # protocol problem (with the known-method list), not as a deep
    # worker-side exception.
    try:
        return SolveRequest(
            measure=_measure_from(_field(d, "measure", "solve_request")),
            times=tuple(float(t)
                        for t in _field(d, "times", "solve_request")),
            scenario=scenario_from_dict(
                _field(d, "scenario", "solve_request")),
            eps=float(_field(d, "eps", "solve_request")),
            method=method,
            solver_kwargs=_decode_plain(
                _field(d, "solver_kwargs", "solve_request")),
            key=_decode_plain(_field(d, "key", "solve_request")))
    except UnknownMethodError as exc:
        raise ProtocolError(f"solve_request: {exc}") from None


# -- solutions -------------------------------------------------------------

def solution_to_dict(solution: TransientSolution) -> dict:
    """Wire form of a solver result (values, steps, diagnostics)."""
    return _envelope("transient_solution", {
        "times": np.asarray(solution.times, dtype=np.float64).tolist(),
        "values": np.asarray(solution.values, dtype=np.float64).tolist(),
        "measure": solution.measure.value,
        "eps": float(solution.eps),
        "steps": np.asarray(solution.steps).tolist(),
        "method": solution.method,
        "stats": _jsonify_stats(solution.stats, where="solution stats"),
    })


def solution_from_dict(data: Mapping) -> TransientSolution:
    d = _expect(data, "transient_solution")
    return TransientSolution(
        times=np.asarray(_field(d, "times", "solution"), dtype=np.float64),
        values=np.asarray(_field(d, "values", "solution"),
                          dtype=np.float64),
        measure=_measure_from(_field(d, "measure", "solution")),
        eps=float(_field(d, "eps", "solution")),
        steps=np.asarray(_field(d, "steps", "solution"), dtype=np.int64),
        method=_field(d, "method", "solution"),
        stats=dict(_field(d, "stats", "solution")))


# -- outcomes --------------------------------------------------------------

def outcome_to_dict(outcome: BatchOutcome) -> dict:
    """Wire form of one task outcome, success or structured failure.

    Failures are already fully stringly-typed on :class:`BatchOutcome`
    (``error_type``/``error``/``traceback``), so a failed cell journals
    and round-trips exactly like a successful one. Success values must be
    a :class:`TransientSolution` or plain data.
    """
    if outcome.value is None:
        value = None
    elif isinstance(outcome.value, TransientSolution):
        value = solution_to_dict(outcome.value)
    else:
        value = {"kind": "plain",
                 "value": _jsonify_stats(outcome.value,
                                         where="outcome value")}
    for name in ("error_type", "error", "traceback"):
        attr = getattr(outcome, name)
        if attr is not None and not isinstance(attr, str):
            raise ProtocolError(
                f"outcome {name} must be a string (live exception "
                f"objects are not wire-serializable), "
                f"got {type(attr).__name__}")
    return _envelope("batch_outcome", {
        "key": _encode_plain(outcome.key, where="outcome key"),
        "ok": bool(outcome.ok),
        "value": value,
        "error_type": outcome.error_type,
        "error": outcome.error,
        "traceback": outcome.traceback,
        "duration": float(outcome.duration),
        "worker_pid": (int(outcome.worker_pid)
                       if outcome.worker_pid is not None else None),
    })


def outcome_from_dict(data: Mapping) -> BatchOutcome:
    d = _expect(data, "batch_outcome")
    raw = _field(d, "value", "outcome")
    if raw is None:
        value: Any = None
    elif isinstance(raw, Mapping) and raw.get("kind") == "plain":
        # Plain values were encoded with the untagged stats codec, so
        # decode is the identity — running _decode_plain here would
        # invent tuples out of dicts that happen to carry a tag key.
        value = raw.get("value")
    else:
        value = solution_from_dict(raw)
    return BatchOutcome(
        key=_decode_plain(_field(d, "key", "outcome")),
        ok=bool(_field(d, "ok", "outcome")),
        value=value,
        error_type=d.get("error_type"),
        error=d.get("error"),
        traceback=d.get("traceback"),
        duration=float(d.get("duration", 0.0)),
        worker_pid=d.get("worker_pid"))
