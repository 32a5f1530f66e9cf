"""Tests of the benchmark itself:  python -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import grassmann_scatter.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from grassmann_scatter import Empirical, random_scatter, residual  # noqa: E402
from tracing import LAYERS, Tracer, _numpy_factor_count, is_timed, layer_metrics  # noqa: E402


def _small_scan(workdir: Path, seed: int) -> list:
    """The scan commands without the two large diagnoses (n = 32, 128), for speed."""
    cmds = workloads.build("scan", seed, workdir)
    return [c for c in cmds if c.kind not in ("generic(3,1,32)", "generic(3,1,128)")][-28:]


def _traced_pass(workdir: Path, seed: int):
    cmds = _small_scan(workdir, seed)
    tracer = Tracer()
    tracer.install()
    try:
        done = run.run_pass(cli, cmds, calibration.Probe("scan"), tracer)
    finally:
        tracer.uninstall()
    return cmds, done, tracer


def test_layer_counts_repeat_exactly_for_one_seed(tmp_path):
    counts = []
    for sub in ("a", "b"):
        _, done, _ = _traced_pass(tmp_path / sub, seed=7)
        counts.append({k: v for k, v in layer_metrics(done.snapshot).items() if not is_timed(k)})
    assert counts[0] == counts[1]
    for name in ("estimator.iterations", "likelihood.atom_evals", "diagnostics.index_evals",
                 "grassmann.dim_intersection_calls", "manifold.linalg_calls"):
        assert counts[0][name][0] > 0, name


def test_tracer_uninstall_restores_every_binding(tmp_path):
    import grassmann_scatter.estimator as estimator

    before = (np.linalg.solve, cli.main, estimator._weighted_kernel_sum)
    _traced_pass(tmp_path, seed=3)
    assert (np.linalg.solve, cli.main, estimator._weighted_kernel_sum) == before


def test_self_times_sum_to_at_most_the_traced_wall_time(tmp_path):
    _, done, tracer = _traced_pass(tmp_path, seed=11)
    total = sum(done.snapshot["layers"][name]["self_ns"] for name in LAYERS) / 1e9
    assert 0.0 < total <= done.wall_s
    assert tracer.spans > 0


def test_injected_wrong_exit_code_is_counted(tmp_path):
    cmds = [c for c in workloads.build("scan", 3, tmp_path) if c.kind.startswith("limit")]
    assert cmds[0].argv[0] == "diagnose" and cmds[0].expect == workloads.LIMIT
    cmds[0].expect = workloads.OK
    done = run.run_pass(cli, cmds, calibration.Probe("scan"))
    assert [(i, kind) for i, kind, _ in done.failures] == [(0, "exit_code")]
    assert run.tally([done], cmds) == (len(cmds), 1, True)


def test_a_raising_command_is_a_counted_failure_not_a_crash(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    cmds = workloads.build("scan", 3, tmp_path)[:2]
    done = run.run_pass(Crashing, cmds, calibration.Probe("scan"))
    assert [kind for _, kind, _ in done.failures] == ["raised", "raised"]
    assert "RuntimeError: boom" in done.failures[0][2]


def test_every_command_is_timed_next_to_a_probe(tmp_path):
    cmds = [c for c in workloads.build("scan", 3, tmp_path) if c.kind.startswith("limit")]
    probe = calibration.Probe("scan")
    done = run.run_pass(cli, cmds, probe)
    assert len(done.probe_s) == len(done.cmd_s) == len(cmds)
    assert all(p > 0.0 for p in done.probe_s)
    assert done.ref_wall_s == pytest.approx(sum(done.ref_cmd_s))
    single = run.run_pass(cli, cmds[:1], probe)
    assert single.ref_cmd_s == pytest.approx(
        [single.cmd_s[0] * probe.reference_s / single.probe_s[0]])


def test_each_command_is_divided_by_the_probes_in_its_window():
    probe = calibration.Probe("bulk")
    ref = probe.reference_s
    starts, seconds = [0.0, 0.15, 0.5, 6.0], [0.1, 0.1, 0.1, 4.0]
    probe_at, probe_s = [0.0, 0.15, 0.5, 6.0], [1.0, 3.0, 5.0, 7.0]
    # windows [-0.1, 0.2], [0.05, 0.35], [0.4, 0.7] and [2, 14]
    assert probe.reference_times(starts, seconds, probe_at, probe_s) == pytest.approx(
        [0.1 * ref / 2.0, 0.1 * ref / 3.0, 0.1 * ref / 5.0, 4.0 * ref / 7.0])


def test_probes_run_untraced():
    tracer = Tracer()
    tracer.install()
    try:
        for workload in workloads.WORKLOADS:
            assert calibration.Probe(workload)() > 0.0
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert sum(layer["linalg_calls"] for layer in snap["layers"].values()) == 0


def test_wrong_estimate_fails_its_check(tmp_path):
    cmd = workloads.build("bulk", 2, tmp_path)[3]
    assert cli.main(cmd.argv) == workloads.OK
    est = np.loadtxt(cmd.outdir / "estimate.csv", delimiter=",")
    g = np.diag([1.0, 1.001, 1.0 / 1.001])          # det-1 congruence: still SPD, det 1
    np.savetxt(cmd.outdir / "estimate.csv", g @ est @ g, delimiter=",")
    kind, reason = workloads.outcome(cmd, workloads.OK, None)
    assert kind == "check" and "residual" in reason


def test_whitened_residual_matches_the_library(tmp_path):
    rng = np.random.default_rng(0)
    for m, r, n in [(3, 1, 7), (5, 2, 9), (10, 3, 40)]:
        points = rng.standard_normal((n, m, r))
        sigma = random_scatter(m, rng)
        ours = workloads.whitened_residual(points, sigma)
        assert ours == pytest.approx(residual(Empirical(points), sigma), rel=1e-9)


def test_broadcast_solve_counts_one_factorization_per_atom():
    count = _numpy_factor_count("solve")
    assert count((np.eye(3)[None], np.ones((5, 3, 2))), {}) == 5
    assert count((np.ones((4, 2, 2)), np.ones((4, 2, 3))), {}) == 4
    assert count((np.eye(3), np.ones(3)), {}) == 1


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s", "cmd_ms_p50", "cmd_ms_tail", "solves_per_s", "setup_s",
                   "peak_rss_mb"}
    snap = Tracer().snapshot()
    reported = set(layer_metrics(snap)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == reported
