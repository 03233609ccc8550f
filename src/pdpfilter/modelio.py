"""Model-file loading and CSV helpers shared by the CLI and the demos.

Model files are JSON:

    {
      "states": ["s1", "s2", ...],
      "generator": [[...], ...],
      "observation": {"s1": "1", "s2": "0", ...},
      "initial": [ ... ],                        # optional, defaults to uniform
      "stopping":  {"g": [...], "l": [...], "alpha": 0.5,
                    "grid_resolution": 64, "tol": 1e-6},          # optional
      "exit_time": {"subset": ["s1", "s3"], "start": "s1",
                    "t_max": 5.0, "step": 0.01},                  # optional
      "stability": {"init_a": [...], "init_b": [...]}             # optional
    }
"""

from __future__ import annotations

import json

import numpy as np

from .chain import Distribution, ObservationModel, validate_generator
from .filtering import FilterModel


class ModelFileError(ValueError):
    pass


def load_model(path: str) -> dict:
    """Load and validate a model file; returns a dict of constructed objects.

    Raises ModelFileError, naming the key, where a per-state vector is
    present without one entry per state."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"cannot read model file {path}: {exc}") from exc
    for key in ("states", "generator", "observation"):
        if key not in raw:
            raise ModelFileError(f"model file missing field {key!r}")
    names = list(raw["states"])
    rate = validate_generator(raw["generator"])
    if rate.n != len(names):
        raise ModelFileError("generator size does not match state list")
    obs_map = raw["observation"]
    missing = [s for s in names if s not in obs_map]
    if missing:
        raise ModelFileError(f"observation missing states: {missing}")
    obs = ObservationModel.from_assignment(tuple(obs_map[s] for s in names))
    for name in ("initial", "stopping.g", "stopping.l", "stability.init_a", "stability.init_b"):
        *section, key = name.split(".")
        vector = ((raw.get(section[0]) or {}) if section else raw).get(key)
        if vector is not None and np.shape(vector) != (rate.n,):
            raise ModelFileError(f"model file's {name} needs one entry per state ({rate.n})")
    initial = raw.get("initial")
    if initial is None:
        mu = Distribution(np.full(rate.n, 1.0 / rate.n))
    else:
        mu = Distribution(initial)
    return {
        "names": names,
        "rate": rate,
        "obs": obs,
        "model": FilterModel(rate, obs),
        "initial": mu,
        "raw": raw,
    }


def state_index(names, ref) -> int:
    """Resolve a state reference (name or integer index) to a 0-based index."""
    if isinstance(ref, int):
        if not 0 <= ref < len(names):
            raise ModelFileError(f"state index {ref} out of range")
        return ref
    try:
        return names.index(ref)
    except ValueError:
        raise ModelFileError(f"unknown state {ref!r}") from None


def fmt(x) -> str:
    """Full round-trip precision for CSV output."""
    return repr(float(x))


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(c) if isinstance(c, (int, float, np.floating)) and not isinstance(c, bool) else str(c) for c in row) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def path_rows(path) -> list:
    """(time, value) rows for a PiecewisePath, including the initial value."""
    rows = [(0.0, path.initial_value)]
    rows.extend((t, v) for t, v in path.jumps)
    return rows
