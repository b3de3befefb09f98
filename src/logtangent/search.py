"""Randomized sampling of pairs over a prime field.

Samples dense homogeneous pairs with independent uniform coefficients,
analyzes each kept draw, aggregates an (m, e, bour, c3) histogram and
collects anomalies: constraint violations (marked prime-suspect, since a
hit over a small prime may be a bad prime rather than a counterexample),
cubic pencils landing on the open (m, e) = (7, 1) stratum, any pair
with a vanishing m-invariant whose initial degree is below the total
degree, and any sample whose analysis raised (an "error" row, so one bad
sample does not end the search).  The vanishing-m check can no longer
fire: m = 0 makes the Buchsbaum-Rim complex exact, so the kernel comes
from the wedge syzygies of degree d and e = d.  It stays as a guard.
Sampling is per-index seeded, so results are byte-identical for a fixed
seed regardless of worker count.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from multiprocessing import Pool

from .fields import PrimeField
from .invariants import FLAGS, invariants, validate_constraints
from .poly import PolyRing
from .sequences import (
    DependentSequenceError,
    NonNormalSequenceError,
    Sequence,
    check_characteristic,
)

SKIP_DEPENDENT = "dependent"
SKIP_NON_NORMAL = "non_normal"


@dataclass
class SearchRow:
    index: int
    status: str  # "ok", "error" or a skip reason
    m: int | None = None
    e: int | None = None
    bour: int | None = None
    c3: int | None = None
    flags: str = ""
    anomalies: list[str] = field(default_factory=list)
    f: str | None = None
    g: str | None = None


@dataclass
class SearchResult:
    df: int
    dg: int
    count: int
    seed: int
    p: int
    rows: list[SearchRow]

    @property
    def kept(self) -> list[SearchRow]:
        return [r for r in self.rows if r.status == "ok"]

    @property
    def skipped(self) -> dict[str, int]:
        out = {SKIP_DEPENDENT: 0, SKIP_NON_NORMAL: 0}
        for r in self.rows:
            if r.status in out:
                out[r.status] += 1
        return out

    def histogram(self) -> list[tuple[tuple[int, int, int, int], int]]:
        counts: dict[tuple[int, int, int, int], int] = {}
        for r in self.kept:
            key = (r.m, r.e, r.bour, r.c3)
            counts[key] = counts.get(key, 0) + 1
        return sorted(counts.items())

    def anomalies(self) -> list[dict]:
        out = []
        for r in self.rows:
            for a in r.anomalies:
                out.append({"index": r.index, "anomaly": a, "f": r.f, "g": r.g})
        return out

    def to_json(self) -> str:
        doc = {
            "df": self.df,
            "dg": self.dg,
            "count": self.count,
            "seed": self.seed,
            "p": self.p,
            "kept": len(self.kept),
            "skipped": self.skipped,
            "histogram": [
                {"m": k[0], "e": k[1], "bour": k[2], "c3": k[3], "count": n}
                for k, n in self.histogram()
            ],
            "anomalies": self.anomalies(),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def csv_lines(self) -> list[str]:
        lines = ["seed_index,m,e,bour,c3,flags"]
        for r in self.kept:
            lines.append(f"{r.index},{r.m},{r.e},{r.bour},{r.c3},{r.flags}")
        return lines


def sample_pair(ring: PolyRing, df: int, dg: int, seed: int, index: int):
    rng = random.Random((seed << 32) + index)
    f = ring.random_homogeneous(df + 1, rng)
    g = ring.random_homogeneous(dg + 1, rng)
    return f, g


def _flags_string(report) -> str:
    flags = ["compressible"] if report.compressible else []
    flags += [flag for flag in FLAGS if getattr(report, flag)]
    return "|".join([*flags, report.stability])


def analyze_sample(args) -> SearchRow:
    df, dg, seed, index, p = args
    ring = PolyRing(PrimeField(p), 4)
    f, g = sample_pair(ring, df, dg, seed, index)
    if f.is_zero() or g.is_zero():
        return SearchRow(index=index, status=SKIP_DEPENDENT)
    seq = Sequence.of(f, g)
    try:
        report = invariants(seq, with_schemes=False)
    except DependentSequenceError:
        return SearchRow(index=index, status=SKIP_DEPENDENT)
    except NonNormalSequenceError:
        return SearchRow(index=index, status=SKIP_NON_NORMAL)
    except Exception as exc:  # one bad sample must not end the search
        error = f"error: {type(exc).__name__}: {exc}"
        return SearchRow(index, "error", anomalies=[error], f=str(seq.f), g=str(seq.g))

    anomalies = [
        f"prime-suspect constraint violation: {v}"
        for v in validate_constraints(report)
    ]
    if (report.df, report.dg) == (2, 2) and (report.m, report.e) == (7, 1):
        anomalies.append("open stratum hit: cubic pencil with (m, e) = (7, 1)")
    if report.m == 0 and report.e < report.d:
        anomalies.append(
            f"vanishing m with initial degree {report.e} below total degree {report.d}"
        )
    row = SearchRow(
        index=index,
        status="ok",
        m=report.m,
        e=report.e,
        bour=report.bour,
        c3=report.c3,
        flags=_flags_string(report),
        anomalies=anomalies,
    )
    if anomalies:
        row.f = str(seq.f)
        row.g = str(seq.g)
    return row


def run_search(
    df: int, dg: int, count: int, seed: int, p: int = 32003, jobs: int = 1
) -> SearchResult:
    if count < 1:
        raise ValueError("count must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if df < 0 or dg < 0:
        raise ValueError("df and dg must be non-negative")
    PrimeField(p)  # validates the modulus
    check_characteristic(p, max(df, dg) + 1)
    tasks = [(min(df, dg), max(df, dg), seed, i, p) for i in range(count)]
    workers = min(jobs, count)
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(analyze_sample, tasks)
    else:
        rows = [analyze_sample(t) for t in tasks]
    rows.sort(key=lambda r: r.index)
    return SearchResult(
        df=min(df, dg), dg=max(df, dg), count=count, seed=seed, p=p, rows=rows
    )
