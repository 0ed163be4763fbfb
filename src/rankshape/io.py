"""Trajectory file formats (binary HSTB and headerless CSV) plus the flat
key = value run configuration.

HSTB layout, all little-endian: magic "HSTB", u32 version (currently 1),
u32 row count T, u32 column count d, then T*d float32 values row-major,
then optionally a u32 byte length followed by that many bytes of UTF-8
JSON metadata.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import struct
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigError, FileFormatError, InputError
from .spectral import validate_trajectory

MAGIC = b"HSTB"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


def write_trajectory(path, H, metadata: dict | None = None) -> None:
    """Write a trajectory: HSTB binary, or CSV when the extension is .csv.

    HSTB payloads are float32, so values must fit that range; CSV files
    cannot carry metadata.
    """
    H = validate_trajectory(H)
    path = Path(path)
    if path.suffix.lower() == ".csv":
        if metadata is not None:
            raise InputError("CSV trajectories cannot carry metadata")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for row in H:
                fh.write(",".join(repr(float(x)) for x in row) + "\n")
        return
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(H, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise InputError("trajectory values exceed the float32 range")
    blob = _HEADER.pack(MAGIC, VERSION, H.shape[0], H.shape[1]) + payload.tobytes()
    if metadata is not None:
        meta = json.dumps(metadata).encode("utf-8")
        blob += struct.pack("<I", len(meta)) + meta
    path.write_bytes(blob)


def read_trajectory(path) -> np.ndarray:
    """Read an HSTB or .csv trajectory as a float64 (T, d) matrix."""
    return read_trajectory_with_metadata(path)[0]


def read_trajectory_with_metadata(path) -> tuple[np.ndarray, dict | None]:
    path = Path(path)
    if not path.is_file():
        raise InputError(f"no such file: {path}")
    if path.suffix.lower() == ".csv":
        return _read_csv(path), None
    return _read_hstb(path)


def _read_hstb(path: Path) -> tuple[np.ndarray, dict | None]:
    blob = path.read_bytes()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise FileFormatError("bad_magic", f"bad magic: not an HSTB file: {path}")
    if len(blob) < _HEADER.size:
        raise FileFormatError("truncated_payload", f"truncated header: {path}")
    _, version, rows, cols = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise FileFormatError("bad_version", f"unsupported HSTB version {version}")
    if rows < 1 or cols < 1:
        raise FileFormatError("dimension_mismatch", f"invalid dimensions {rows}x{cols}")
    need = rows * cols * 4
    body = blob[_HEADER.size:]
    if len(body) < need:
        raise FileFormatError(
            "truncated_payload",
            f"truncated payload: need {need} bytes for {rows}x{cols}, have {len(body)}")
    values = np.frombuffer(body[:need], dtype="<f4").reshape(rows, cols).astype(np.float64)
    metadata = None
    rest = body[need:]
    if rest:
        if len(rest) < 4:
            raise FileFormatError("truncated_payload", "truncated metadata length field")
        (meta_len,) = struct.unpack_from("<I", rest)
        if len(rest) - 4 < meta_len:
            raise FileFormatError("truncated_payload", "truncated metadata block")
        if len(rest) - 4 > meta_len:
            raise FileFormatError("trailing_data", "unexpected bytes after metadata block")
        try:
            metadata = json.loads(rest[4:4 + meta_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FileFormatError("bad_metadata", f"metadata is not valid JSON: {exc}") from None
    if not np.all(np.isfinite(values)):
        r, c = np.argwhere(~np.isfinite(values))[0]
        raise FileFormatError("non_finite_value", f"non-finite value at row {r}, column {c}")
    return values, metadata


def text_lines(path):
    """Stream a UTF-8 text file's lines; InputError if it is missing or not UTF-8."""
    path = Path(path)
    if not path.is_file():
        raise InputError(f"no such file: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            raise InputError(f"not UTF-8 text: {path}: {exc.reason}") from None


def _read_csv(path: Path) -> np.ndarray:
    rows = []
    for r, line in enumerate(csv.reader(text_lines(path))):
        if not line:
            continue
        parsed = []
        for c, cell in enumerate(line):
            try:
                value = float(cell)
            except ValueError:
                raise FileFormatError(
                    "bad_value", f"unparseable value at row {r}, column {c}") from None
            if not math.isfinite(value):
                raise FileFormatError(
                    "non_finite_value", f"non-finite value at row {r}, column {c}")
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise FileFormatError("dimension_mismatch", f"empty trajectory file: {path}")
    width = len(rows[0])
    for r, parsed in enumerate(rows):
        if len(parsed) != width:
            raise FileFormatError(
                "dimension_mismatch", f"row {r} has {len(parsed)} columns, expected {width}")
    return np.array(rows, dtype=np.float64)


@dataclasses.dataclass
class RunConfig:
    """Flat run configuration for the simulator commands."""

    alpha: float = 0.5
    window: int = 64
    stride: int = 16
    group_size: int = 8
    iterations: int = 500
    learning_rate: float = 0.05
    train_seed: int = 1
    env_seed: int = 0
    dim: int = 16
    vocab: int = 32
    bias_dim: int = 4
    null_tokens: int = 8
    tau: float = 0.3
    horizon: int = 32
    decay: float = 0.7
    bias_logit: float = 2.0
    label: str = ""
    verbose: bool = False


_CONFIG_TYPES: dict[str, type] = typing.get_type_hints(RunConfig)


def _parse_config_value(key: str, text: str, typ: type):
    text = text.strip()
    if typ is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"key {key}: expected a boolean, got {text!r}")
    try:
        return typ(text)
    except ValueError:
        raise ConfigError(f"key {key}: expected {typ.__name__}, got {text!r}") from None


def _set_config_key(cfg: RunConfig, key: str, value: str, where: str) -> None:
    if key not in _CONFIG_TYPES:
        accepted = ", ".join(sorted(_CONFIG_TYPES))
        raise ConfigError(f"{where}: unknown key {key!r}; accepted keys: {accepted}")
    setattr(cfg, key, _parse_config_value(key, value, _CONFIG_TYPES[key]))


def parse_run_config(text: str, source: str = "config") -> RunConfig:
    """Parse key = value lines; '#' starts a comment, unknown keys are
    rejected with the list of accepted keys."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        _set_config_key(cfg, key.strip(), value, f"{source} line {lineno}")
    return cfg


def load_run_config(path) -> RunConfig:
    return parse_run_config("".join(text_lines(path)), source=str(path))


def apply_overrides(cfg: RunConfig, assignments) -> RunConfig:
    """Apply command-line key=value overrides on top of a parsed config."""
    for raw in assignments:
        if "=" not in raw:
            raise ConfigError(f"override {raw!r}: expected key=value")
        key, _, value = raw.partition("=")
        _set_config_key(cfg, key.strip(), value, f"override {raw!r}")
    return cfg
