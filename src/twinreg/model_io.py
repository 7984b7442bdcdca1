"""Versioned JSON serialization for trained models.

The on-disk record is ``{"format_version", "kind", "payload", "checksum"}``
where the checksum is the SHA-256 of the canonical payload encoding.  Floats
are stored via ``repr`` round-tripping (JSON numbers), so reloaded models
predict identically.  Loading refuses unknown versions and corrupt files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .hierarchy import HfTsvrModel, HierarchyConfig, LayerState
from .tsvr import KernelSpec, TsvrDiagnostics, TsvrModel, TsvrParams

FORMAT_VERSION = 1


class ModelIOError(Exception):
    """File could not be read or written."""


class SchemaVersionMismatch(Exception):
    pass


class CorruptModel(Exception):
    """Checksum failure or structurally invalid record."""


def _array(a) -> list | None:
    return None if a is None else np.asarray(a).tolist()


def _kernel_payload(k: KernelSpec) -> dict:
    return {"kind": k.kind, "tau": k.tau}


def _params_payload(p: TsvrParams) -> dict:
    return {
        "p1": p.p1, "p2": p.p2, "p3": p.p3, "p4": p.p4,
        "eps1": p.eps1, "eps2": p.eps2, "kernel": _kernel_payload(p.kernel),
    }


def _params_from(payload: dict) -> TsvrParams:
    kernel = KernelSpec(**payload["kernel"])
    return TsvrParams(
        p1=payload["p1"], p2=payload["p2"], p3=payload["p3"], p4=payload["p4"],
        eps1=payload["eps1"], eps2=payload["eps2"], kernel=kernel,
    )


def _tsvr_payload(model: TsvrModel) -> dict:
    d = model.diagnostics
    return {
        "w1": _array(model.w1), "b1": model.b1,
        "w2": _array(model.w2), "b2": model.b2,
        "kernel": _kernel_payload(model.kernel),
        "params": _params_payload(model.params),
        "basis": _array(model.basis),
        "input_dim": model.input_dim,
        "diagnostics": {
            "alpha": _array(d.alpha), "gamma": _array(d.gamma),
            "xi_star_norm": d.xi_star_norm, "eta_star_norm": d.eta_star_norm,
            "dual_objective_down": d.dual_objective_down,
            "dual_objective_up": d.dual_objective_up,
            "qp_iterations_down": d.qp_iterations_down,
            "qp_iterations_up": d.qp_iterations_up,
        },
    }


def _tsvr_from(payload: dict) -> TsvrModel:
    diag = payload["diagnostics"]
    basis = payload["basis"]
    model = TsvrModel(
        w1=np.array(payload["w1"], dtype=float),
        b1=float(payload["b1"]),
        w2=np.array(payload["w2"], dtype=float),
        b2=float(payload["b2"]),
        kernel=KernelSpec(**payload["kernel"]),
        params=_params_from(payload["params"]),
        basis=None if basis is None else np.array(basis, dtype=float),
        input_dim=int(payload["input_dim"]),
        diagnostics=TsvrDiagnostics(
            alpha=np.array(diag["alpha"], dtype=float),
            gamma=np.array(diag["gamma"], dtype=float),
            xi_star_norm=float(diag["xi_star_norm"]),
            eta_star_norm=float(diag["eta_star_norm"]),
            dual_objective_down=float(diag["dual_objective_down"]),
            dual_objective_up=float(diag["dual_objective_up"]),
            qp_iterations_down=int(diag["qp_iterations_down"]),
            qp_iterations_up=int(diag["qp_iterations_up"]),
        ),
    )
    width = model.input_dim if model.basis is None else len(model.basis)
    if model.w1.shape != (width,) or model.w2.shape != (width,):
        raise ValueError(f"weights do not have length {width}")
    return model


def _config_payload(config: HierarchyConfig) -> dict:
    payload = asdict(config)
    if config.base_params is not None:
        payload["base_params"] = _params_payload(config.base_params)
    return payload


def _config_from(payload: dict) -> HierarchyConfig:
    missing = {f.name for f in fields(HierarchyConfig)} - set(payload)
    if missing:  # a missing key would silently take its default
        raise KeyError(f"config is missing {sorted(missing)}")
    base = payload.get("base_params")
    kwargs = dict(payload)
    kwargs["base_params"] = None if base is None else _params_from(base)
    return HierarchyConfig(**kwargs)


def _hierarchy_payload(model: HfTsvrModel) -> dict:
    return {
        "config": _config_payload(model.config),
        "input_dim": model.input_dim,
        "training_report": model.training_report,
        "layers": [
            {
                "index": layer.index,
                "tau": layer.tau,
                "b_v": layer.b_v,
                "b_v_prime": layer.b_v_prime,
                "pruned_indices": _array(layer.pruned_indices),
                "residual_variance_in": layer.residual_variance_in,
                "second_pass_adopted": layer.second_pass_adopted,
                "model": _tsvr_payload(layer.model),
            }
            for layer in model.layers
        ],
    }


def _hierarchy_from(payload: dict) -> HfTsvrModel:
    layers = tuple(
        LayerState(
            index=int(item["index"]),
            tau=float(item["tau"]),
            b_v=float(item["b_v"]),
            b_v_prime=float(item["b_v_prime"]),
            model=_tsvr_from(item["model"]),
            pruned_indices=np.array(item["pruned_indices"], dtype=np.intp),
            residual_variance_in=float(item["residual_variance_in"]),
            second_pass_adopted=item["second_pass_adopted"],
        )
        for item in payload["layers"]
    )
    return HfTsvrModel(
        layers=layers,
        config=_config_from(payload["config"]),
        input_dim=payload["input_dim"],
        training_report=payload["training_report"],
    )


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_model(model: TsvrModel | HfTsvrModel, path: str | Path) -> None:
    if isinstance(model, TsvrModel):
        kind, payload = "tsvr", _tsvr_payload(model)
    elif isinstance(model, HfTsvrModel):
        kind, payload = "hftsvr", _hierarchy_payload(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    record = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "payload": payload,
        "checksum": _checksum(payload),
    }
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    except OSError as exc:
        raise ModelIOError(f"cannot write {path}: {exc}") from exc


def load_model(path: str | Path) -> TsvrModel | HfTsvrModel:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ModelIOError(f"cannot read {path}: {exc}") from exc
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptModel(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(record, dict) or "format_version" not in record:
        raise CorruptModel(f"{path}: not a model record")
    if record["format_version"] != FORMAT_VERSION:
        raise SchemaVersionMismatch(
            f"{path}: format_version {record['format_version']}, "
            f"supported {FORMAT_VERSION}"
        )
    payload = record.get("payload")
    if payload is None or record.get("checksum") != _checksum(payload):
        raise CorruptModel(f"{path}: checksum mismatch")
    kind = record.get("kind")
    if kind not in ("tsvr", "hftsvr"):
        raise CorruptModel(f"{path}: unknown model kind {kind!r}")
    reader = _tsvr_from if kind == "tsvr" else _hierarchy_from
    # A signed payload can still miss a field or hold one of the wrong type.
    try:
        return reader(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptModel(
            f"{path}: invalid {kind} record ({type(exc).__name__}: {exc})"
        ) from exc
