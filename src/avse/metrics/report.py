"""Per-pair metric records and the line-delimited report file.

One JSON object per evaluated pair with fields {id, sisdr_db, stoi}.
The file ends with an aggregate object carrying the means.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from avse.errors import DataError
from avse.data.wavio import load_wav
from avse.metrics.sisdr import si_sdr
from avse.metrics.stoi import stoi

AGGREGATE_ID = "aggregate"


@dataclass
class MetricReport:
    """Objective scores for one clean/processed pair."""

    id: str
    sisdr_db: float
    stoi: float

    def to_json(self) -> str:
        return json.dumps({"id": self.id, "sisdr_db": self.sisdr_db, "stoi": self.stoi})


def evaluate_pair(clean_path, enhanced_path, pair_id: str | None = None) -> MetricReport:
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
    if pair_id is None:
        pair_id = str(clean_path)
    return MetricReport(
        id=pair_id,
        sisdr_db=si_sdr(clean, enhanced),
        stoi=stoi(clean, enhanced, rate_c),
    )


def aggregate_report(reports: list[MetricReport]) -> MetricReport:
    """Mean scores across pairs."""
    if not reports:
        raise DataError("cannot aggregate an empty report list")
    return MetricReport(
        id=AGGREGATE_ID,
        sisdr_db=sum(r.sisdr_db for r in reports) / len(reports),
        stoi=sum(r.stoi for r in reports) / len(reports),
    )


def write_report(path, reports: list[MetricReport]) -> MetricReport:
    """Write per-pair lines sorted by id plus the aggregate; returns the aggregate."""
    ordered = sorted(reports, key=lambda r: r.id)
    agg = aggregate_report(ordered)
    with open(path, "w", encoding="utf-8") as fh:
        for rep in ordered:
            fh.write(rep.to_json() + "\n")
        fh.write(agg.to_json() + "\n")
    return agg
