"""scripts/bench_pairs.py on fixed numbers; no benchmark runs here."""
import importlib.util
import json
import os
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


def test_each_side_gets_its_own_empty_bytecode_cache(monkeypatch, tmp_path, capsys):
    """Every run of a side gets that side's `PYTHONPYCACHEPREFIX`, a directory
    that is empty before the side's first run and is gone afterwards; the
    rest of the environment passes through.  No benchmark runs: the runs
    are replaced by a fixed closing line."""
    bench_pairs = _load()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    closing = json.dumps({"metrics": {"cpu_s": {"value": 0.5, "unit": "s"}}})
    calls = []

    def fake_run(argv, cwd, env, **kwargs):
        cache = env["PYTHONPYCACHEPREFIX"]
        calls.append((Path(cwd), cache, os.listdir(cache)))
        assert env["PYTHONDONTWRITEBYTECODE"] == "1"
        return subprocess.CompletedProcess(argv, 0, stdout=closing + "\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    parent = tmp_path / "parent"
    assert bench_pairs.main([str(parent), "project", "1", "2"]) == 0
    caches = {}
    for cwd, cache, _ in calls:
        caches.setdefault(cwd, set()).add(cache)
    assert set(caches) == {parent, bench_pairs.ROOT}
    (parent_cache,), (change_cache,) = caches[parent], caches[bench_pairs.ROOT]
    assert parent_cache != change_cache
    assert all(listed == [] for _, _, listed in calls)
    assert not os.path.exists(parent_cache) and not os.path.exists(change_cache)
    assert [cwd for cwd, _, _ in calls] == [parent, bench_pairs.ROOT,
                                            bench_pairs.ROOT, parent]
    assert "cpu_s: parent 0.5" in capsys.readouterr().out
