"""Per-pair metric records and the line-delimited report file.

A record is a dict {id, sisdr_db, stoi} in that key order.  The file
holds one JSON object per evaluated pair, sorted by id, and ends with an
aggregate object carrying the means.
"""

from __future__ import annotations

import json

from avse.errors import DataError
from avse.data.wavio import load_wav
from avse.metrics.sisdr import si_sdr
from avse.metrics.stoi import stoi

AGGREGATE_ID = "aggregate"


def evaluate_pair(clean_path, enhanced_path, pair_id: str) -> dict:
    """Load both files, trim to the shorter, and score."""
    clean, rate_c = load_wav(clean_path)
    enhanced, rate_e = load_wav(enhanced_path)
    if rate_c != rate_e:
        raise DataError(
            f"sample rates differ: {clean_path} at {rate_c} Hz, {enhanced_path} at {rate_e} Hz"
        )
    n = min(len(clean), len(enhanced))
    clean = clean[:n]
    enhanced = enhanced[:n]
    return {
        "id": pair_id,
        "sisdr_db": si_sdr(clean, enhanced),
        "stoi": stoi(clean, enhanced, rate_c),
    }


def write_report(path, records: list[dict]) -> dict:
    """Write per-pair lines sorted by id plus the aggregate; returns the aggregate."""
    if not records:
        raise DataError("cannot aggregate an empty report list")
    ordered = sorted(records, key=lambda r: r["id"])
    aggregate = {
        "id": AGGREGATE_ID,
        "sisdr_db": sum(r["sisdr_db"] for r in ordered) / len(ordered),
        "stoi": sum(r["stoi"] for r in ordered) / len(ordered),
    }
    with open(path, "w", encoding="utf-8") as fh:
        for record in ordered + [aggregate]:
            fh.write(json.dumps(record) + "\n")
    return aggregate
