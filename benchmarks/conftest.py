"""Shared benchmark fixtures and result reporting.

Every benchmark registers its result via :func:`record`, naming it with
a stable id (``fig12``, ``ablation_proxy``, ...) and passing the gated
metrics alongside the paper-style table.  Results flow through
:mod:`repro.bench.results`: one schema-versioned ``BENCH_<name>.json``
plus the human ``.txt`` table per result, ownership tracked in
``results/MANIFEST.json`` so renaming a figure deletes its stale files
instead of stranding them (the pre-JSON writer leaked one orphaned
``.txt`` per rename).  ``python -m repro.bench`` collects the same
JSON files; CI ratchets on them.

Scale knobs (environment variables):

* ``REPRO_BENCH_QUERIES`` — queries per serving simulation (default 150).
* ``REPRO_BENCH_TRIALS``  — auto-scheduler trials per layer (default 192).
* ``REPRO_BENCH_TOL``     — capacity-search tolerance in QPS (default 25).
* ``REPRO_BENCH_WORKERS`` — processes per QPS sweep (default 1 = serial;
  higher values fan capacity searches and load curves out over
  fork-ed worker processes).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping

import pytest

from repro.bench.results import BenchResult, write_result
from repro.cluster import homogeneous, sweep_cluster_qps
from repro.serving.server import ServingStack
from repro.serving.workload import single_model

BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "150"))
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "192"))
BENCH_TOL = float(os.environ.get("REPRO_BENCH_TOL", "25"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

#: Where results land; the unified runner redirects this so a custom
#: ``python -m repro.bench --out-dir`` collects pytest figures too.
_RESULTS_DIR = Path(os.environ.get("REPRO_BENCH_RESULTS_DIR",
                                   Path(__file__).parent / "results"))
_REPORTS: list[tuple[str, str]] = []


def record(name: str, title: str, text: str,
           metrics: Mapping[str, float] | None = None,
           seed: int | None = None) -> None:
    """Register one benchmark result: terminal table + JSON on disk.

    ``name`` is the stable machine id CI keys baselines on; ``title``
    is the human heading; ``metrics`` are the gated numbers (omit for
    display-only tables).
    """
    _REPORTS.append((title, text))
    write_result(
        BenchResult(
            name=name, title=title, metrics=dict(metrics or {}),
            knobs={"queries": BENCH_QUERIES, "trials": BENCH_TRIALS,
                   "tolerance_qps": BENCH_TOL},
            tables={title: text}, seed=seed),
        _RESULTS_DIR)


def node_reports(stack: ServingStack, policy: str, model: str,
                 qps_values: list[float], count: int,
                 workers: int | None = None) -> list:
    """One node's ``ServingReport`` per offered load (Fig. 3/5a/10/13/14).

    The paper's single-model protocol: one node, a one-node round-robin
    fleet, streams ``model`` alone with identical uniform arrivals.
    """
    reports = sweep_cluster_qps(
        stack, homogeneous(1, policy=policy), single_model(model),
        list(qps_values), count, router="round_robin", workers=workers,
        scenario="uniform")
    return [report.nodes[0].report for report in reports]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for title, text in _REPORTS:
        terminalreporter.write_sep("=", title)
        terminalreporter.write_line(text)


@pytest.fixture(scope="session")
def stack():
    """The full Table 2 stack, compiled once per benchmark session."""
    return ServingStack(trials=BENCH_TRIALS, proxy_scenarios=200, seed=0)


@pytest.fixture(scope="session")
def bench_queries():
    return BENCH_QUERIES


@pytest.fixture(scope="session")
def bench_tolerance():
    return BENCH_TOL


@pytest.fixture(scope="session")
def bench_workers():
    return BENCH_WORKERS
