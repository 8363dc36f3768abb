"""scripts/bench_pairs.py on fixed numbers; no benchmark runs here."""
import importlib.util
import json
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_reports_medians_quartiles_and_lower_pairs():
    bench_pairs = _load()
    before = [0.10, 0.12, 0.14, 0.16, 0.18]
    after = [0.09, 0.13, 0.10, 0.12, 0.11]
    pairs = [({"cpu_s": b, "ok_frac": 1.0}, {"cpu_s": a, "ok_frac": 1.0})
             for b, a in zip(before, after)]
    assert bench_pairs.summary(pairs) == [
        "cpu_s: parent 0.14 [0.12, 0.16]  change 0.11 [0.1, 0.12]  -21.4%  lower in 4/5",
        "ok_frac: parent 1 [1, 1]  change 1 [1, 1]  +0.0%  lower in 0/5",
    ]


def test_a_single_pair_has_its_values_as_quartiles():
    bench_pairs = _load()
    assert bench_pairs.summary([({"cert_steps": 0.0}, {"cert_steps": 2.0})]) == [
        "cert_steps: parent 0 [0, 0]  change 2 [2, 2]  n/a  lower in 0/1"]


def test_parse_run_reads_metrics_and_round_fingerprints():
    bench_pairs = _load()
    closing = {"correct": True, "attempted": 7, "failed": 0,
               "metrics": {"cpu_s": {"value": 0.25, "unit": "s"},
                           "ok_frac": {"value": 1.0, "unit": "ratio"}}}
    stdout = "\n".join([
        "# workload entail seed 3: 2 rounds (0 traced), closed loop, 1 caller",
        "# round 0: inputs 1a fingerprint 00ff ops 4 failed 0 cpu 0.2 s wall 0.2 s",
        "# round 1: inputs 2b fingerprint 11ee ops 3 failed 0 cpu 0.3 s wall 0.3 s",
        "cpu_s = 0.25 s",
        "ok_frac = 1 ratio",
        json.dumps(closing),
    ])
    assert bench_pairs.parse_run(stdout) == ({"cpu_s": 0.25, "ok_frac": 1.0},
                                             {0: "00ff", 1: "11ee"})


def test_each_side_runs_without_writing_or_redirecting_bytecode(monkeypatch, tmp_path,
                                                                capsys):
    """Every run of both sides gets `PYTHONDONTWRITEBYTECODE=1` and no
    `PYTHONPYCACHEPREFIX`, even when the caller set one, so each worker
    reads the interpreter's standard library bytecode; the rest of the
    environment passes through, and the first side flips per seed.  No
    benchmark runs: the runs are replaced by a fixed closing line."""
    bench_pairs = _load()
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "cache"))
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    closing = json.dumps({"metrics": {"cpu_s": {"value": 0.5, "unit": "s"}}})
    calls = []

    def fake_run(argv, cwd, env, **kwargs):
        calls.append(Path(cwd))
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        assert "PYTHONPYCACHEPREFIX" not in env
        assert env["BENCH_PAIRS_PROBE"] == "kept"
        return subprocess.CompletedProcess(argv, 0, stdout=closing + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    assert bench_pairs.main([str(parent), "project", "1", "2"]) == 0
    assert calls == [parent, change, change, parent]
    assert "cpu_s: parent 0.5" in capsys.readouterr().out
    assert not (tmp_path / "cache").exists()


def test_checkout_paths_of_different_lengths_are_refused():
    bench_pairs = _load()
    assert bench_pairs.refusal(Path("/work/parent"), Path("/work/change")) is None
    assert bench_pairs.refusal(Path("/work/parent"), Path("/work/repo")) == (
        "checkout paths differ in length: /work/parent has 12 characters, "
        "/work/repo has 10")


def test_a_checkout_with_bytecode_is_refused_before_any_run(monkeypatch, tmp_path, capsys):
    bench_pairs = _load()
    parent, change = tmp_path / "parent", tmp_path / "change"
    cache = change / "src" / "linvar" / "__pycache__"
    cache.mkdir(parents=True)
    (parent / "perfbench").mkdir(parents=True)

    def fake_run(*args, **kwargs):
        raise AssertionError("no run may start")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    assert bench_pairs.main([str(parent), "classify", "1"]) == 2
    assert str(cache) in capsys.readouterr().err
    cache.rmdir()
    (parent / "perfbench" / "__pycache__").mkdir()
    assert bench_pairs.main([str(parent), "classify", "1"]) == 2
    assert str(parent / "perfbench" / "__pycache__") in capsys.readouterr().err


PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


def test_verdict_gain_needs_nine_pairs_in_ten_and_a_gap_wider_than_the_parent_spread():
    bench_pairs = _load()
    # parent quartiles 10.225 and 10.675: an interquartile range of 0.45
    lower = [b - 1.0 for b in PARENT]
    assert bench_pairs.verdict(PARENT, lower, "lower", 0.25) == "gain"
    # one tie and nine wins is still 9 in 10
    assert bench_pairs.verdict(PARENT, [PARENT[0]] + lower[1:], "lower", 0.25) == "gain"
    # two pairs lost: 8 in 10
    assert bench_pairs.verdict(PARENT, [b + 1.0 for b in PARENT[:2]] + lower[2:],
                               "lower", 0.25) == "flat"
    # every pair better, but the medians only 0.3 apart
    assert bench_pairs.verdict(PARENT, [b - 0.3 for b in PARENT], "lower", 0.25) == "flat"
    higher = [b + 1.0 for b in PARENT]
    assert bench_pairs.verdict(PARENT, higher, "higher", 0.01) == "gain"
    assert bench_pairs.verdict(PARENT, higher, "lower", 0.25) == "flat"


def test_verdict_regression_is_a_median_worse_by_more_than_the_bound():
    bench_pairs = _load()
    # bound 0.1 of the parent's median 10.45 is 1.045
    assert bench_pairs.verdict(PARENT, [b + 1.1 for b in PARENT], "lower", 0.1) == "regression"
    assert bench_pairs.verdict(PARENT, [b + 1.0 for b in PARENT], "lower", 0.1) == "flat"
    assert bench_pairs.verdict(PARENT, [b - 1.1 for b in PARENT], "higher", 0.1) == "regression"


def test_verdict_unresolved_is_a_parent_spread_wider_than_the_bound():
    bench_pairs = _load()
    wide = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # interquartile range 4.5 against a bound of 0.25 * 5.5
    assert bench_pairs.verdict(wide, wide, "lower", 0.25) == "unresolved"
    assert bench_pairs.verdict(wide, [b + 1.0 for b in wide], "lower", 0.25) == "unresolved"
    # better in every pair is not enough
    each_pair_better = [0.9] + [b - 0.5 for b in wide[1:]]
    assert bench_pairs.verdict(wide, each_pair_better, "lower", 0.25) == "unresolved"
    # every change run below every parent run settles it, gain or not
    split = [10.0] * 5 + [20.0] * 5
    assert bench_pairs.verdict(split, [9.9] * 10, "lower", 0.25) == "flat"
    assert bench_pairs.verdict(split, [21.0] * 10, "higher", 0.25) == "flat"
    assert bench_pairs.verdict(wide, [0.5] * 10, "lower", 0.25) == "gain"
    # the same spread is narrower than a bound of 1.0 * 5.5
    assert bench_pairs.verdict(wide, wide, "lower", 1.0) == "flat"


def test_verdict_flat_on_equal_runs():
    bench_pairs = _load()
    assert bench_pairs.verdict(PARENT, PARENT, "lower", 0.25) == "flat"
    assert bench_pairs.verdict([1.0] * 10, [1.0] * 10, "higher", 0.01) == "flat"


def test_each_metric_line_ends_with_its_verdict(monkeypatch, tmp_path, capsys):
    """The verdict reads `better` and `bound` from BENCHMARK.json, which
    stays as it was."""
    bench_pairs = _load()
    before = bench_pairs.BENCHMARK.read_text()
    values = {"parent": iter([0.5, 0.4]), "change": iter([0.3, 0.2])}

    def fake_run(argv, cwd, env, **kwargs):
        value = next(values[Path(cwd).name])
        closing = {"metrics": {"cpu_s": {"value": value, "unit": "s"},
                               "ok_frac": {"value": value, "unit": "ratio"}}}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(closing) + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path / "change")
    assert bench_pairs.main([str(tmp_path / "parent"), "entail", "1", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].startswith("cpu_s: ") and lines[-3].endswith("lower in 2/2  gain")
    assert lines[-2].startswith("ok_frac: ") and lines[-2].endswith("lower in 2/2  regression")
    assert bench_pairs.BENCHMARK.read_text() == before
