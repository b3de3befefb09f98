"""The three seeded workloads: inputs, the timed op and the output checks.

A workload is a fixed list of passes built from the seed (that is the
set-up); the runner cycles through the passes until its time is up.  A
pass is a list of op inputs whose outputs are checked together, outside
the timed region, and, where the workload has one, compared with the
sha256 recorded in ``digests.json`` for that seed and pass.  A seed with
no recorded digest is still checked for repeatability: every execution
of a pass must give the digest of its first execution.

Every call into the package goes through a module attribute looked up at
call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import importlib
import random

P = 32003


def _lt(module: str):
    return importlib.import_module(f"logtangent.{module}")


class Workload:
    name = ""
    has_digest = False
    # spans a traced run must reach; a missing one means a wrapper was lost
    expected_spans: frozenset[str] = frozenset()

    def __init__(self, seed: int, recorded: dict):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = seed
        self.recorded = recorded.get(self.name, {}).get(str(seed))
        self.passes = self.build_passes()
        self._first_digest: dict[int, str] = {}

    def build_passes(self) -> list[list]:
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check_outputs(self, outputs: list) -> list[str | None]:
        """One entry per counted unit: None when it passed, else the problem."""
        raise NotImplementedError

    def digest(self, k: int, outputs: list) -> str | None:
        return None

    def check(self, k: int, outputs: list) -> list[str | None]:
        units = self.check_outputs(outputs)
        if any(isinstance(out, Exception) for out in outputs):
            return [u or "failed with the rest of its pass" for u in units]
        got = self.digest(k, outputs)
        if got is None:
            return units
        if self.recorded is not None:
            want = self.recorded[k]
        else:
            want = self._first_digest.setdefault(k, got)
        if got != want:
            problem = f"pass {k}: sha256 {got[:12]} differs from {want[:12]}"
            return [u or problem for u in units]
        return units


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SearchCubicFp(Workload):
    """Dense cubic pencils over F_p, one ``search.analyze_sample`` per op.

    Pass k is exactly ``logtangent search --df 2 --dg 2 --count 8
    --seed <1000 * seed + k>``, and its digest is that run's JSON.
    """

    name = "search-cubic-fp"
    has_digest = True
    pass_size = 8
    pass_count = 16
    expected_spans = frozenset(
        {
            "search.analyze_sample",
            "search.sample_pair",
            "invariants.invariants",
            "invariants.validate_constraints",
            "sequences.jacobian_analysis",
            "sequences.constant_kernel_dimension",
            "groebner.module_gb_and_syzygies",
            "groebner.groebner_basis",
            "groebner.normal_form",
            "groebner.syzygy_basis",
            "hilbert.hilbert_of_quotient",
            "resolution.resolve_submodule",
            "resolution.minimal_generators",
        }
    )

    def build_passes(self):
        return [
            [(2, 2, 1000 * self.seed + k, i, P) for i in range(self.pass_size)]
            for k in range(self.pass_count)
        ]

    def op(self, x):
        return _lt("search").analyze_sample(x)

    def check_outputs(self, outputs):
        units = []
        for row in outputs:
            if isinstance(row, Exception):
                units.append(f"raised {row!r}")
            elif row.status != "ok":
                units.append(f"sample {row.index}: status {row.status}")
            elif any("violation" in a for a in row.anomalies):
                units.append(f"sample {row.index}: {row.anomalies}")
            else:
                units.append(None)
        return units

    def digest(self, k, outputs):
        result = _lt("search").SearchResult(
            df=2, dg=2, count=len(outputs), seed=1000 * self.seed + k, p=P,
            rows=list(outputs),
        )
        return _sha256(result.to_json())


class SchemesFp(Workload):
    """Dense quadric-cubic pairs over F_p; one full ``analyze`` per op."""

    name = "schemes-fp"
    has_digest = True
    pass_count = 32
    expected_spans = frozenset(
        {
            "invariants.invariants",
            "sequences.jacobian_analysis",
            "sequences.constant_kernel_dimension",
            "groebner.module_gb_and_syzygies",
            "groebner.groebner_basis",
            "groebner.normal_form",
            "groebner.syzygy_basis",
            "groebner.saturate_ideal",
            "groebner.ideal_colon",
            "groebner.ideal_intersection",
            "groebner.ideal_groebner",
            "groebner.annihilator_of_cokernel",
            "groebner.ideal_equals",
            "hilbert.hilbert_of_quotient",
            "hilbert.dimension_degree",
            "hilbert.hilbert_of_ideal_quotient",
            "resolution.resolve_submodule",
            "resolution.minimal_generators",
            "resolution.module_dual",
            "resolution.resolve_ideal",
            "bourbaki.bourbaki_data",
        }
    )

    def build_passes(self):
        ring = _lt("poly").PolyRing(_lt("fields").PrimeField(P), 4)
        search, sequences = _lt("search"), _lt("sequences")
        passes = []
        for i in range(self.pass_count):
            f, g = search.sample_pair(ring, 1, 2, self.seed, i)
            passes.append([sequences.Sequence.of(f, g)])
        return passes

    def op(self, seq):
        report = _lt("invariants").invariants(seq, with_schemes=True)
        return report, _lt("bourbaki").bourbaki_data(seq, report)

    def check_outputs(self, outputs):
        (out,) = outputs
        if isinstance(out, Exception):
            return [f"raised {out!r}"]
        report, bd = out
        violations = _lt("invariants").validate_constraints(report)
        if violations:
            return [f"constraint violations: {violations}"]
        if bd is None:
            return [None if report.free else "non-free pair without Bourbaki data"]
        if bd.degree != report.bour:
            return [f"curve degree {bd.degree} != Bourbaki degree {report.bour}"]
        if bd.c3_from_curve(report.d, report.e) != report.c3:
            return [f"c3 from the curve != c3 = {report.c3}"]
        if not bd.lifting_ok:
            return ["resolution lifting check failed"]
        return [None]

    def digest(self, k, outputs):
        ((report, bd),) = outputs
        lines = [
            f"m={report.m} e={report.e} bour={report.bour} c3={report.c3}",
            f"betti={report.resolution.betti().columns}",
            f"schemes_equal={report.schemes_equal}",
        ]
        for label, scheme in (
            ("fitting", report.fitting_scheme),
            ("annihilator", report.annihilator_scheme),
        ):
            lines.append(f"{label} dim={scheme.dim} degree={scheme.degree}")
            lines.extend(str(p) for p in scheme.ideal)
        if bd is not None:
            lines.append(f"bourbaki degree={bd.degree} genus={bd.genus}")
            lines.extend(str(p) for p in bd.ideal)
        return _sha256("\n".join(lines))


class CorpusQq(Workload):
    """One op is ``fixtures.run_corpus(QQ)`` over the pinned rows.

    The seed only orders the rows of each pass; each row counts as one
    unit of ``attempted`` and ``failed``, and its pins are its check.
    """

    name = "corpus-qq"
    pass_count = 16
    expected_spans = frozenset(
        {
            "fixtures.run_fixture",
            "invariants.invariants",
            "invariants.validate_constraints",
            "sequences.jacobian_analysis",
            "sequences.constant_kernel_dimension",
            "groebner.module_gb_and_syzygies",
            "groebner.groebner_basis",
            "groebner.normal_form",
            "groebner.syzygy_basis",
            "groebner.saturate_ideal",
            "groebner.ideal_colon",
            "groebner.ideal_intersection",
            "groebner.ideal_groebner",
            "groebner.annihilator_of_cokernel",
            "groebner.ideal_equals",
            "hilbert.hilbert_of_quotient",
            "hilbert.dimension_degree",
            "hilbert.hilbert_of_ideal_quotient",
            "resolution.resolve_submodule",
            "resolution.minimal_generators",
            "resolution.module_dual",
            "resolution.resolve_ideal",
            "bourbaki.bourbaki_data",
        }
    )

    def build_passes(self):
        rng = random.Random(self.seed)
        rows = list(_lt("fixtures").FIXTURES)
        passes = []
        for _ in range(self.pass_count):
            rng.shuffle(rows)
            passes.append([tuple(rows)])
        return passes

    def op(self, rows):
        return _lt("fixtures").run_corpus(_lt("fields").QQ, fixtures=rows)

    def check_outputs(self, outputs):
        (out,) = outputs
        if isinstance(out, Exception):
            return [f"raised {out!r}"] * len(_lt("fixtures").FIXTURES)
        return [
            None
            if r.passed
            else f"{r.fixture.name}: {r.error or r.mismatches or r.violations}"
            for r in out
        ]


WORKLOADS = {w.name: w for w in (SearchCubicFp, SchemesFp, CorpusQq)}
