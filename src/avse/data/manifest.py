"""Line-delimited JSON manifests naming the files of each scene."""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

from avse.errors import ManifestError


@dataclass
class ManifestEntry:
    """Paths and mixing SNR for one scene."""

    id: str
    target_path: str
    interferer_path: str
    frames_path: str
    snr_db: float


_REQUIRED = tuple(f.name for f in fields(ManifestEntry))


def _finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def write_manifest(path, entries: list[ManifestEntry]) -> None:
    """One JSON object per entry and line, fields in declaration order;
    paths are written as given."""
    with open(path, "w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(asdict(entry)) + "\n")


def load_manifest(path) -> list[ManifestEntry]:
    """Parse one JSON object per line; relative paths resolve against the
    manifest's own directory."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ManifestError(0, f"cannot read {path}: {exc}") from exc
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for line_no, line in enumerate(lines, start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ManifestError(line_no, f"{path} is not UTF-8: {exc}") from exc
        if not text.strip():
            continue
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as exc:  # incl. JSONDecodeError
            raise ManifestError(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ManifestError(line_no, "entry is not a JSON object")
        for field in _REQUIRED:
            if field not in raw:
                raise ManifestError(line_no, f"missing field {field!r}")
        for field in ("id", "target_path", "interferer_path", "frames_path"):
            value = raw[field]
            if not isinstance(value, str) or not value or "\0" in value:
                raise ManifestError(
                    line_no, f"field {field!r} must be a non-empty string without NUL"
                )
        snr = raw["snr_db"]
        if not _finite_number(snr):
            raise ManifestError(line_no, f"field 'snr_db' must be a finite number, got {snr!r}")
        entries.append(
            ManifestEntry(
                id=raw["id"],
                target_path=os.path.join(base, raw["target_path"]),
                interferer_path=os.path.join(base, raw["interferer_path"]),
                frames_path=os.path.join(base, raw["frames_path"]),
                snr_db=float(snr),
            )
        )
    return entries
