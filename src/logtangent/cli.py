"""Command-line front end.

Three subcommands: ``analyze`` one pair and emit a text or JSON report,
``corpus`` to replay the built-in worked-example corpus against its pins,
and ``search`` to sample random pairs over a prime field and histogram
their invariants.

Exit codes are part of the contract so CI can tell input problems from
mathematical anomalies: 0 success, 1 corpus mismatch, 4 constraint
violation under ``--validate``.  Every library refusal becomes its exit
code in one place, the except chain of ``main``: 2 for any ``ValueError``
(unparseable, dependent or non-normal input, a characteristic p <= the
largest degree, a degree past the packing bound, a refused ``search``
argument), 3 for a Bourbaki extraction failure, 5 for a failed internal
cross-check (``ConsistencyError``) or a resolution past its length bound
(``ResolutionLengthError``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .bourbaki import BourbakiExtractionError, bourbaki_data
from .fields import QQ, PrimeField
from .fixtures import FIXTURES, run_corpus
from .invariants import FLAGS, InvariantReport, invariants, validate_constraints
from .poly import ConsistencyError, PolyRing
from .resolution import ResolutionLengthError
from .search import run_search
from .sequences import NonNormalSequenceError, Sequence, check_characteristic


def _parse_field_arg(text: str):
    if text == "rational":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad prime field spec {text!r}")
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    raise argparse.ArgumentTypeError(
        f"field must be 'rational' or 'fp:P', got {text!r}"
    )


def _field_label(field) -> str:
    return "rational" if field == QQ else f"fp:{field.p}"


# the report fields both reports show, in the text report's order
REPORT_KEYS = (
    "df", "dg", "d", "m0", "compressible", "h0", "exponents", "e", "m", "ch3_q",
    "c1", "c2", "c3", "bour", "gpdim", "generator_count", "stability", "slope",
)


def _json_value(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else str(value)
    return value


def report_document(seq, report: InvariantReport, bd, field, elapsed: float) -> dict:
    doc = {
        "version": __version__,
        "field": _field_label(field),
        "input": {"f": str(seq.f), "g": str(seq.g)},
        "normal": report.normal,
        **{key: _json_value(getattr(report, key)) for key in REPORT_KEYS},
        "flags": {flag: getattr(report, flag) for flag in FLAGS},
        "timing_seconds": round(elapsed, 4),
    }
    if report.fitting_scheme is not None:
        schemes = {"fitting": report.fitting_scheme, "annihilator": report.annihilator_scheme}
        doc["schemes"] = {
            name: {"dim": s.dim, "degree": s.degree, "ideal": [str(p) for p in s.ideal]}
            for name, s in schemes.items()
        }
        doc["schemes"]["equal"] = report.schemes_equal
    if bd is not None:
        doc["bourbaki"] = {
            "generator_index": bd.generator_index,
            "generator_degree": bd.generator_degree,
            "ideal": [str(p) for p in bd.ideal],
            "degree": bd.degree,
            "genus": bd.genus,
            "complete_intersection": bd.complete_intersection,
            "lifting_ok": bd.lifting_ok,
        }
    return doc


def _print_text_report(doc: dict, betti_text: str | None):
    print(f"pair: f = {doc['input']['f']}")
    print(f"      g = {doc['input']['g']}")
    for key in ("field", *REPORT_KEYS):
        print(f"{key:16s} {doc[key]}")
    flags = [k for k, v in doc["flags"].items() if v]
    print(f"{'flags':16s} {', '.join(flags) if flags else '-'}")
    if "schemes" in doc:
        s = doc["schemes"]
        print(
            f"{'schemes':16s} fitting dim {s['fitting']['dim']} deg "
            f"{s['fitting']['degree']}; annihilator dim "
            f"{s['annihilator']['dim']} deg {s['annihilator']['degree']}; "
            f"equal {s['equal']}"
        )
    if "bourbaki" in doc:
        b = doc["bourbaki"]
        print(
            f"{'bourbaki':16s} degree {b['degree']}, genus {b['genus']}, "
            f"complete intersection {b['complete_intersection']}, "
            f"lifting {b['lifting_ok']}"
        )
        print(f"{'bourbaki ideal':16s} {', '.join(b['ideal'])}")
    if betti_text:
        print("resolution of the syzygy module:")
        print(betti_text)


def _refuse(args, exc, code: int, **extra) -> int:
    as_json = getattr(args, "json", False)  # only analyze has --json
    print(json.dumps({"error": str(exc), **extra}) if as_json else f"error: {exc}")
    return code


def cmd_analyze(args) -> int:
    started = time.perf_counter()
    seq = Sequence.parse(PolyRing(args.field, 4), args.f, args.g)
    report = invariants(seq, with_schemes=not args.no_schemes)
    bd = bourbaki_data(seq, report) if args.bourbaki else None
    elapsed = time.perf_counter() - started
    doc = report_document(seq, report, bd, args.field, elapsed)

    violations = validate_constraints(report) if args.validate else []
    if violations:
        doc["violations"] = violations

    betti_text = report.resolution.betti().format_grid() if args.betti else None
    if args.json:
        if betti_text is not None:
            doc["betti"] = [list(c) for c in report.resolution.betti().columns]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_text_report(doc, betti_text)
        if violations:
            print("constraint violations:")
            for v in violations:
                print(f"  - {v}")

    return 4 if violations else 0


def cmd_corpus(args) -> int:
    field = args.field
    ring = PolyRing(QQ, 4)
    top = max(ring.parse(text).degree for fx in FIXTURES for text in (fx.f, fx.g))
    check_characteristic(field.characteristic, top)
    failures = 0
    name_width = max(len(fx.name) for fx in FIXTURES)
    for result in run_corpus(field):
        status = "ok" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        print(f"{result.fixture.name:<{name_width}}  {status}")
        if result.error:
            print(f"    error: {result.error}")
        for m in result.mismatches:
            print(f"    {m}")
        for v in result.violations:
            print(f"    constraint: {v}")
        if result.fixture.notes and args.verbose:
            print(f"    note: {result.fixture.notes}")
    total = len(FIXTURES)
    print(f"{total - failures}/{total} fixtures passed ({_field_label(field)})")
    return 0 if failures == 0 else 1


def cmd_search(args) -> int:
    result = run_search(
        df=args.df,
        dg=args.dg,
        count=args.count,
        seed=args.seed,
        p=args.fp,
        jobs=args.jobs,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(result.csv_lines()) + "\n")
    print(result.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logtangent",
        description=(
            "invariants of the logarithmic tangent sheaf of a pair of "
            "homogeneous polynomials in x0..x3"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze one pair (f, g)")
    analyze.add_argument("--f", required=True, help="first polynomial")
    analyze.add_argument("--g", required=True, help="second polynomial")
    analyze.add_argument(
        "--field",
        type=_parse_field_arg,
        default=QQ,
        help="coefficient field: 'rational' (default) or 'fp:P'",
    )
    analyze.add_argument(
        "--bourbaki", action="store_true", help="extract the Bourbaki curve data"
    )
    analyze.add_argument(
        "--validate",
        action="store_true",
        help="check the proven constraints; violations exit 4",
    )
    analyze.add_argument(
        "--betti", action="store_true", help="include the resolution table"
    )
    analyze.add_argument("--json", action="store_true", help="emit JSON")
    analyze.add_argument(
        "--no-schemes",
        action="store_true",
        help="skip the saturated scheme comparison (faster)",
    )
    analyze.set_defaults(func=cmd_analyze)

    corpus = sub.add_parser("corpus", help="replay the built-in fixture corpus")
    corpus.add_argument(
        "--field", type=_parse_field_arg, default=QQ, help="'rational' or 'fp:P'"
    )
    corpus.add_argument("--verbose", action="store_true", help="print fixture notes")
    corpus.set_defaults(func=cmd_corpus)

    search = sub.add_parser("search", help="random sampling over a prime field")
    search.add_argument("--df", type=int, required=True)
    search.add_argument("--dg", type=int, required=True)
    search.add_argument("--count", type=int, required=True)
    search.add_argument("--seed", type=int, required=True)
    search.add_argument("--fp", type=int, default=32003, help="prime modulus")
    search.add_argument("--jobs", type=int, default=1, help="worker processes")
    search.add_argument("--out", help="write per-sample CSV here")
    search.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonNormalSequenceError as exc:
        return _refuse(args, exc, 2, divisor_degree=exc.divisor_degree)
    except ValueError as exc:
        return _refuse(args, exc, 2)
    except BourbakiExtractionError as exc:
        return _refuse(args, exc, 3)
    except (ConsistencyError, ResolutionLengthError) as exc:
        return _refuse(args, exc, 5)


if __name__ == "__main__":
    sys.exit(main())
