"""Command-line interface: output shapes, exit codes, determinism."""

import dataclasses
import json

import pytest

from logtangent.cli import main
from logtangent.fields import QQ, PrimeField
from logtangent.fixtures import FIXTURES, run_corpus, run_fixture
from logtangent.groebner import EXP_MAX
from logtangent.poly import ConsistencyError, PolyRing
from logtangent.sequences import SmallCharacteristicError


def fixture_by_name(name):
    return next(fx for fx in FIXTURES if fx.name == name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_json_matches_documented_example(capsys):
    code, out = run_cli(
        capsys,
        "analyze",
        "--f", "x0^2+x3^2",
        "--g", "x0^3+x0*x1*x2+x3^3",
        "--json",
        "--bourbaki",
        "--validate",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == 1
    assert doc["m"] == 4
    assert doc["bour"] == 1
    assert doc["c3"] == 3
    assert doc["flags"]["nearly_free"] is True
    assert doc["stability"] == "unstable"
    assert doc["slope"] == "-3/2"
    assert doc["bourbaki"]["degree"] == 1
    assert "violations" not in doc
    assert doc["schemes"]["equal"] is True


def test_analyze_text_mode_mentions_key_invariants(capsys):
    code, out = run_cli(capsys, "analyze", "--f", "x0*x1", "--g", "x3*x2*(x0-x1)")
    assert code == 0
    assert "exponents" in out and "stability" in out


def test_analyze_dependent_pair_exits_2(capsys):
    code, out = run_cli(capsys, "analyze", "--f", "x0^2", "--g", "x0^3", "--json")
    assert code == 2
    assert "error" in json.loads(out)


def test_analyze_non_normal_pair_exits_2_with_divisor_degree(capsys):
    code, out = run_cli(capsys, "analyze", "--f", "x0*x1", "--g", "x0*x2^2", "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["divisor_degree"] >= 1


def test_analyze_parse_error_exits_2(capsys):
    code, out = run_cli(capsys, "analyze", "--f", "2x1", "--g", "x0^3", "--json")
    assert code == 2


def test_analyze_unprintable_coefficient_exits_2_before_invariants(
    capsys, monkeypatch, digit_limit
):
    import logtangent.cli as cli_mod

    def fail(seq, with_schemes):
        raise AssertionError("invariants ran")

    monkeypatch.setattr(cli_mod, "invariants", fail)
    argv = ("analyze", "--f", "9^9999*x0^2+x1^2", "--g", "x0^3+x0*x1*x2+x3^3", "--json")
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == f"coefficient has more than {digit_limit} digits (at offset 2)"


def test_analyze_denominator_vanishing_mod_p_exits_2(capsys):
    code, out = run_cli(
        capsys,
        "analyze", "--field", "fp:7", "--f", "1/7*x0", "--g", "x1^2+x2^2+x3^2", "--json",
    )
    assert code == 2
    assert "offset 2" in json.loads(out)["error"]


def test_analyze_betti_table(capsys):
    code, out = run_cli(
        capsys, "analyze", "--f", "x0^2+x3^2", "--g", "x0^3+x0*x1*x2+x3^3", "--betti"
    )
    assert code == 0
    assert "total:" in out


def test_analyze_prime_field(capsys):
    code, out = run_cli(
        capsys,
        "analyze",
        "--f", "x0^2+x3^2",
        "--g", "x0^3+x0*x1*x2+x3^3",
        "--field", "fp:32003",
        "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "fp:32003"
    assert (doc["e"], doc["m"], doc["bour"], doc["c3"]) == (1, 4, 1, 3)


def test_corpus_passes(capsys):
    code, out = run_cli(capsys, "corpus")
    assert code == 0
    assert f"{len(FIXTURES)}/{len(FIXTURES)} fixtures passed" in out


def test_corpus_detects_corrupted_pin():
    fx = dataclasses.replace(fixture_by_name("mixeddegrees-m5"), m=6)
    result = run_fixture(fx, QQ)
    assert not result.passed
    assert any("m:" in m for m in result.mismatches)
    results = run_corpus(QQ, fixtures=(fx,))
    assert not results[0].passed


def test_corpus_checks_a_lone_fitting_saturation_pin():
    """A fitting_saturation pin alone still computes the schemes it needs."""
    fx = dataclasses.replace(
        fixture_by_name("schematic-difference"),
        annihilator_saturation=None,
        scheme_degrees=None,
    )
    result = run_fixture(fx, QQ)
    assert result.passed and result.error is None
    wrong = dataclasses.replace(fx, fitting_saturation=("x3^2", "x1*x3", "x0*x1^2 - x1^3"))
    (result,) = run_corpus(QQ, fixtures=(wrong,))
    assert not result.passed and result.error is None
    assert result.mismatches == ["fitting saturation differs from pinned ideal"]


def test_corpus_command_exits_1_on_mismatch(capsys, monkeypatch):
    import logtangent.cli as cli_mod

    fx = dataclasses.replace(fixture_by_name("mixeddegrees-m5"), m=6)
    monkeypatch.setattr(
        cli_mod, "run_corpus", lambda field: [run_fixture(fx, field)]
    )
    code, out = run_cli(capsys, "corpus")
    assert code == 1
    assert "FAIL" in out


def test_analyze_small_characteristic_exits_2(capsys):
    code, out = run_cli(
        capsys, "analyze", "--f", "x0^2+x3^2", "--g", "x0^3+x1^3+x2^3+x3^3",
        "--field", "fp:3", "--json",
    )
    assert code == 2
    assert "characteristic 3" in json.loads(out)["error"]


def test_analyze_degree_past_packing_bound_exits_2(capsys):
    e = EXP_MAX + 1
    code, out = run_cli(
        capsys, "analyze", "--f", f"x0^{e}+x1^{e}", "--g", f"x2^{e + 1}+x3^{e + 1}",
        "--field", "fp:32003", "--json",
    )
    assert code == 2
    assert "packed degree bound" in json.loads(out)["error"]


def test_corpus_small_characteristic_exits_2_before_any_row(capsys, monkeypatch):
    import logtangent.cli as cli_mod

    runs = []
    monkeypatch.setattr(cli_mod, "run_corpus", lambda field: runs.append(field) or [])
    # the largest fixture degree is 5: fp:5 is refused, fp:7 runs
    code, out = run_cli(capsys, "corpus", "--field", "fp:5")
    assert code == 2 and out.startswith("error:") and not runs
    code, _ = run_cli(capsys, "corpus", "--field", "fp:7")
    assert code == 0 and len(runs) == 1


def test_search_is_deterministic_and_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code1, out1 = run_cli(
        capsys,
        "search", "--df", "1", "--dg", "2", "--count", "12",
        "--seed", "7", "--out", str(out_path),
    )
    csv1 = out_path.read_text()
    code2, out2 = run_cli(
        capsys,
        "search", "--df", "1", "--dg", "2", "--count", "12",
        "--seed", "7", "--out", str(out_path),
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert csv1 == out_path.read_text()
    lines = csv1.strip().splitlines()
    assert lines[0] == "seed_index,m,e,bour,c3,flags"
    assert len(lines) >= 2
    doc = json.loads(out1)
    assert doc["count"] == 12
    assert doc["kept"] + sum(doc["skipped"].values()) == 12


def test_search_worker_pool_matches_sequential():
    from logtangent.search import run_search

    seq = run_search(df=1, dg=2, count=10, seed=3, p=32003, jobs=1)
    par = run_search(df=1, dg=2, count=10, seed=3, p=32003, jobs=2)
    assert seq.to_json() == par.to_json()
    assert seq.csv_lines() == par.csv_lines()


def test_search_records_a_failing_sample_and_goes_on(monkeypatch):
    import logtangent.search as search_mod

    ring = PolyRing(PrimeField(32003), 4)
    bad_f, bad_g = search_mod.sample_pair(ring, 1, 2, 3, 4)
    real = search_mod.invariants

    def flaky(seq, with_schemes):
        if (seq.f, seq.g) == (bad_f, bad_g):
            raise ConsistencyError("cross-check failed")
        return real(seq, with_schemes=with_schemes)

    clean = search_mod.run_search(df=1, dg=2, count=10, seed=3, jobs=1)
    monkeypatch.setattr(search_mod, "invariants", flaky)
    result = search_mod.run_search(df=1, dg=2, count=10, seed=3, jobs=1)
    assert [r.status for r in result.rows if r.status != "ok"] == ["error"]
    assert result.anomalies() == [
        {
            "index": 4,
            "anomaly": "error: ConsistencyError: cross-check failed",
            "f": str(bad_f),
            "g": str(bad_g),
        }
    ]
    # every other row is as it was
    assert [r for r in result.rows if r.index != 4] == [
        r for r in clean.rows if r.index != 4
    ]


@pytest.fixture
def no_sampling(monkeypatch):
    """Fails the test if a sample is analyzed or a worker pool started."""
    import logtangent.search as search_mod

    def no_sample(task):
        raise AssertionError("a sample was analyzed")

    def no_pool(processes):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(search_mod, "analyze_sample", no_sample)
    monkeypatch.setattr(search_mod, "Pool", no_pool)


def refused_search(capsys, argv):
    """Stdout of ``search`` with the arguments in argv, which must exit 2."""
    code, out = run_cli(capsys, "search", *argv.split())
    assert code == 2
    return out


def test_search_rejects_zero_count(capsys, no_sampling):
    out = refused_search(capsys, "--df 2 --dg 2 --count 0 --seed 1")
    assert out == "error: count must be at least 1\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_rejects_nonpositive_jobs(capsys, no_sampling, jobs):
    out = refused_search(capsys, f"--df 2 --dg 2 --count 4 --seed 1 --jobs {jobs}")
    assert out == "error: jobs must be at least 1\n"


def test_search_rejects_negative_degree(capsys, no_sampling):
    out = refused_search(capsys, "--df -1 --dg 2 --count 4 --seed 1")
    assert out == "error: df and dg must be non-negative\n"


def test_search_starts_no_more_workers_than_samples(monkeypatch):
    import logtangent.search as search_mod

    sizes, chunks = [], []

    class RecordingPool:
        """Records its size and the chunk size each map is given, and maps in
        this process: no worker is started."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks, chunksize=None):
            chunks.append((sizes[-1], len(tasks), chunksize))
            return [func(t) for t in tasks]

    serial = search_mod.run_search(df=1, dg=2, count=3, seed=5, jobs=1)
    monkeypatch.setattr(search_mod, "Pool", RecordingPool)
    assert search_mod.run_search(df=1, dg=2, count=3, seed=5, jobs=64).to_json() == (
        serial.to_json()
    )
    search_mod.run_search(df=1, dg=2, count=3, seed=5, jobs=2)
    search_mod.run_search(df=1, dg=2, count=1, seed=5, jobs=8)
    assert sizes == [3, 2]
    for count, jobs in [(8, 2), (8, 3), (16, 4)]:
        search_mod.run_search(df=0, dg=1, count=count, seed=5, jobs=jobs)
    # Pool.map's default chunk size is ceil(len / (4 * workers)), so every
    # started worker can get a chunk
    for workers, n, chunksize in chunks:
        size = chunksize or -(-n // (4 * workers))
        assert -(-n // size) >= workers, (workers, n, chunksize)
    assert len(chunks) == 5


def test_search_rejects_composite_modulus(capsys, no_sampling):
    out = refused_search(capsys, "--df 2 --dg 2 --count 1 --seed 1 --fp 32004")
    assert out == "error: modulus must be an odd prime, got 32004\n"


def test_search_rejects_small_characteristic(capsys, no_sampling):
    # deg g = dg + 1 = 3, so p = 3 is refused
    out = refused_search(capsys, "--df 2 --dg 2 --count 1 --seed 1 --fp 3")
    assert out == "error: characteristic 3 must exceed deg g = 3\n"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "df, p, error",
    [(2, 3, SmallCharacteristicError), (-1, 32003, ValueError)],
    ids=["small_characteristic", "negative_degree"],
)
def test_run_search_refuses_before_sampling(no_sampling, jobs, df, p, error):
    from logtangent.search import run_search

    with pytest.raises(error):
        run_search(df, 2, 3, 0, p=p, jobs=jobs)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("error", [ConsistencyError], ids=lambda e: e.__name__)
def test_analyze_internal_failure_exits_5(capsys, monkeypatch, error):
    import logtangent.cli as cli_mod

    def fail(seq, with_schemes):
        raise error("cross-check failed")

    monkeypatch.setattr(cli_mod, "invariants", fail)
    code, out = run_cli(capsys, "analyze", "--f", "x0^2+x3^2", "--g", "x0^3+x1^3", "--json")
    assert code == 5
    assert json.loads(out) == {"error": "cross-check failed"}


def test_analyze_bourbaki_failure_exits_3(capsys, monkeypatch):
    import logtangent.cli as cli_mod
    from logtangent.bourbaki import BourbakiExtractionError

    def fail(seq, report):
        raise BourbakiExtractionError("no section found")

    monkeypatch.setattr(cli_mod, "bourbaki_data", fail)
    argv = ("analyze", "--f", "x0^2+x3^2", "--g", "x0^3+x0*x1*x2+x3^3", "--no-schemes")
    argv += ("--bourbaki",)
    assert run_cli(capsys, *argv, "--json") == (3, '{"error": "no section found"}\n')
    assert run_cli(capsys, *argv) == (3, "error: no section found\n")


def test_analyze_validate_violation_exits_4(capsys, monkeypatch):
    import logtangent.cli as cli_mod

    monkeypatch.setattr(cli_mod, "validate_constraints", lambda report: ["e out of range"])
    argv = ("analyze", "--f", "x0^2+x3^2", "--g", "x0^3+x0*x1*x2+x3^3", "--no-schemes")
    code, out = run_cli(capsys, *argv, "--validate", "--json")
    assert code == 4 and json.loads(out)["violations"] == ["e out of range"]
    code, out = run_cli(capsys, *argv, "--validate")
    assert code == 4 and out.endswith("constraint violations:\n  - e out of range\n")
    # without --validate nothing is checked
    assert run_cli(capsys, *argv)[0] == 0
