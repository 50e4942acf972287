"""Request validation for the evaluation server's JSON API.

Every endpoint's payload is validated here into plain typed values; any
violation raises :class:`ApiError` carrying the HTTP status and a
stable machine-readable ``code``, which the connection handler renders
as ``{"error": {"code", "message"}}``.  Axis names and values go
through the design-space registry itself (:mod:`repro.dse.axes`), so
the API accepts exactly what ``repro dse --axes`` accepts -- no second
vocabulary to drift: every axis value, a JSON string or any other JSON
scalar, resolves through the axis' own parser, a scalar on its JSON
text (``{"nwindows": 8}`` as ``nwindows=8``; ``8.5`` or ``16.0`` is
refused as ``nwindows=8.5`` is).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.dse.axes import AXES, SweepConfig, DesignSpace
from repro.hw.config import HwConfig


class ApiError(Exception):
    """One client-visible failure: HTTP status + stable error code."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def body(self) -> bytes:
        return json.dumps(
            {"error": {"code": self.code, "message": self.message}},
            sort_keys=True).encode() + b"\n"


def parse_json(body: bytes) -> dict:
    """The request body as a JSON object, or a 400."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes, malformed JSON and an
        # integer past the interpreter's digit limit; RecursionError
        # arrays or objects nested too deep to decode
        raise ApiError(400, "bad-json",
                       f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ApiError(400, "bad-json",
                       "request body must be a JSON object")
    return payload


def _check_fields(payload: dict, allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ApiError(400, "unknown-field",
                       f"unknown field(s) {unknown}; "
                       f"expected a subset of {sorted(allowed)}")


#: Bound on a server's memo of built configurations
#: (:func:`price_request`); a full memo is cleared, not evicted piecemeal.
CONFIG_MEMO_MAX = 1024


def _json_text(value: int | float) -> str:
    """The JSON text of a decoded scalar: what ``--axes`` would be given."""
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is float and not math.isfinite(value):
        return json.dumps(value)        # NaN, Infinity, -Infinity
    return repr(value)


def price_request(payload: dict, base: HwConfig,
                  memo: dict | None = None) -> tuple[
                      SweepConfig, str, tuple[tuple[str, object], ...]]:
    """Validate a ``/v1/price`` payload into a single candidate platform.

    Returns ``(config, workload, axes)`` where ``axes`` echoes the
    (name, value) pairs in canonical registry order: a string value as
    its axis parses it (``{"fpu": "on"}`` echoes ``true``), any other
    scalar exactly as sent.  Every value resolves through the axis' own
    parser, a non-string scalar on its JSON text, so ``{"fpu": "on"}``,
    ``{"fpu": true}`` and ``{"fpu": 1}`` price identically and a value
    ``repro dse --axes`` refuses answers 400 ``bad-axis-value``.

    Every payload is validated; ``memo`` (one dict per ``base``, kept by
    the caller) then maps the resolved ``(axis, type, value)`` triples
    to the configuration built for them, so a repeated combination is
    one dict probe instead of a :meth:`DesignSpace.config_for`.  It
    holds at most :data:`CONFIG_MEMO_MAX` entries.
    """
    _check_fields(payload, ("workload", "axes"))
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ApiError(400, "bad-workload",
                       "'workload' must be a non-empty workload name, "
                       "e.g. 'img:sobel3x3'")
    axes = payload.get("axes", {})
    if axes is None:
        axes = {}
    if not isinstance(axes, dict):
        raise ApiError(400, "bad-axes",
                       "'axes' must be an object of axis-name: value")
    unknown = sorted(set(axes) - set(AXES))
    if unknown:
        raise ApiError(400, "unknown-axis",
                       f"unknown axis(es) {unknown}; "
                       f"available: {sorted(AXES)}")
    resolved: list[tuple[str, object]] = []
    echoed: list[tuple[str, object]] = []
    for name, axis in AXES.items():     # canonical registry order
        if name not in axes:
            continue
        sent = axes[name]
        if isinstance(sent, str):
            text = sent
        elif isinstance(sent, (int, float)):    # bool is an int
            text = _json_text(sent)
        else:
            raise ApiError(400, "bad-axis-value",
                           f"axis {name!r}: expected a scalar or string, "
                           f"got {type(sent).__name__}")
        try:
            value = axis.parse(text)
        except ValueError as exc:
            raise ApiError(400, "bad-axis-value",
                           f"axis {name!r}: {exc}") from None
        resolved.append((name, value))
        echoed.append((name, value if isinstance(sent, str) else sent))
    key = tuple((name, type(value), value) for name, value in resolved)
    config = memo.get(key) if memo is not None else None
    if config is None:
        config = _build_config(resolved, base)
        if memo is not None:
            if len(memo) >= CONFIG_MEMO_MAX:
                memo.clear()
            memo[key] = config
    return config, workload, tuple(echoed)


def _build_config(resolved: list[tuple[str, object]],
                  base: HwConfig) -> SweepConfig:
    if not resolved:
        return SweepConfig(name=base.name or "base", axis_values=(), hw=base)
    space = DesignSpace(tuple((name, (value,)) for name, value in resolved))
    try:
        return space.config_for([value for _, value in resolved], base)
    except (ValueError, TypeError) as exc:
        raise ApiError(400, "bad-axis-value", str(exc)) from None


@dataclass(frozen=True)
class SweepRequest:
    """A validated ``/v1/sweep`` payload (defaults match ``repro dse``)."""

    axes: str | None = None
    workloads: str | None = None
    fmt: str = "json"
    mode: str = "profile"
    refine: int = 0
    front_cap: int | None = None
    shards: int | None = None   #: streamed only; None derives from workers


def sweep_request(payload: dict) -> SweepRequest:
    """Validate a ``/v1/sweep`` payload into a :class:`SweepRequest`."""
    _check_fields(payload, ("axes", "workloads", "format", "mode",
                            "refine", "front_cap", "shards"))
    axes = payload.get("axes")
    if axes is not None and (not isinstance(axes, str) or not axes.strip()):
        raise ApiError(400, "bad-axes",
                       "'axes' must be a design-space spec string, e.g. "
                       "'clock_mhz=25:50,fpu' (or null for the stock grid)")
    workloads = payload.get("workloads")
    if workloads is not None and (not isinstance(workloads, str)
                                  or not workloads.strip()):
        raise ApiError(400, "bad-workloads",
                       "'workloads' must be a registry filter string "
                       "(or null for the table3 preset)")
    fmt = payload.get("format", "json")
    if fmt not in ("text", "csv", "json"):
        raise ApiError(400, "bad-format",
                       f"'format' must be text, csv or json, not {fmt!r}")
    mode = payload.get("mode", "profile")
    if mode not in ("profile", "stream"):
        raise ApiError(400, "bad-mode",
                       f"'mode' must be profile or stream, not {mode!r}")
    refine = payload.get("refine", 0)
    if not isinstance(refine, int) or isinstance(refine, bool) or refine < 0:
        raise ApiError(400, "bad-refine",
                       "'refine' must be a non-negative integer")
    front_cap = payload.get("front_cap")
    if front_cap is not None and (not isinstance(front_cap, int)
                                  or isinstance(front_cap, bool)
                                  or front_cap < 1):
        raise ApiError(400, "bad-front-cap",
                       "'front_cap' must be a positive integer or null")
    shards = payload.get("shards")
    if shards is not None and (not isinstance(shards, int)
                               or isinstance(shards, bool) or shards < 1):
        raise ApiError(400, "bad-shards",
                       "'shards' must be a positive integer or null")
    if shards is not None and mode != "stream":
        raise ApiError(400, "bad-shards",
                       "'shards' only applies to mode=stream sweeps")
    if front_cap is not None and mode != "stream":
        raise ApiError(400, "bad-front-cap",
                       "'front_cap' only applies to mode=stream sweeps")
    if refine and mode != "stream":
        raise ApiError(400, "bad-refine",
                       "'refine' only applies to mode=stream sweeps")
    return SweepRequest(axes=axes, workloads=workloads, fmt=fmt, mode=mode,
                        refine=refine, front_cap=front_cap, shards=shards)
