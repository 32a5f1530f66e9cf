"""Suite-wide fixtures and the acceptance-summary report.

The two Monte Carlo experiments are expensive, so they run once per session
(timed, inside the fixture) and every test that needs their output shares
the same run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from grassmann_scatter import clt_experiment, lln_experiment, random_scatter

LLN_SEED = 31
CLT_SEED = 29

_criterion_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.rsplit("::", 1)[-1].split("[")[0]
    if not name.startswith("test_criterion_"):
        return
    if report.when == "call" or report.outcome in ("failed", "skipped"):
        if _criterion_outcomes.get(name) != "failed":
            _criterion_outcomes[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_criterion_outcomes):
        label = "PASS" if _criterion_outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {label}")


@pytest.fixture(scope="session")
def lln_runs():
    """Consistency experiment (m=3, r=2, grid 25..1600, 200 reps), run at
    one worker and at eight, each timed."""
    rng = np.random.default_rng(97)
    sigma = random_scatter(3, rng, spread=0.5)
    ns = [25, 100, 400, 1600]
    t0 = time.perf_counter()
    single = lln_experiment(sigma, 2, ns, 200, LLN_SEED, threads=1)
    t1 = time.perf_counter()
    eight = lln_experiment(sigma, 2, ns, 200, LLN_SEED, threads=8)
    t2 = time.perf_counter()
    return {
        "sigma": sigma,
        "single": single,
        "eight": eight,
        "time_single": t1 - t0,
        "time_eight": t2 - t1,
    }


@pytest.fixture(scope="session")
def clt_run():
    """Fluctuation experiment (m=2, r=1, n=2000, 4000 reps) against the
    predicted limiting covariance, the closed form 4 B B^T."""
    t0 = time.perf_counter()
    report = clt_experiment(np.eye(2), 1, 2000, 4000, CLT_SEED, threads=1)
    elapsed = time.perf_counter() - t0
    return {"report": report, "elapsed": elapsed}
