"""Tests of the benchmark itself: seeding, answer checks, metric names and
exact counts.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The per-layer metrics the benchmark is required to report.
REQUIRED_LAYER_METRICS = [
    "intlinalg.smith_s", "intlinalg.smith_s.d1", "intlinalg.smith_s.d2",
    "intlinalg.smith_s.d3", "intlinalg.smith_s.d4", "intlinalg.smith_calls",
    "intlinalg.smith_nnz_in", "intlinalg.smith_unit_factor_ratio",
    "intlinalg.ddzero_s", "intlinalg.chain_homology_s",
    "intlinalg.left_reduction_s", "intlinalg.direct_sum_s",
    "simplicial.full_subcomplex_s", "simplicial.full_subcomplex_calls",
    "simplicial.reduced_homology_s", "simplicial.reduced_homology_calls",
    "simplicial.homology_cache_hit_ratio", "simplicial.from_maximal_faces_s",
    "cubical.cells_s", "cubical.cells", "cubical.boundaries_s",
    "cubical.boundary_nnz", "cubical.homology_s", "cubical.splitting_s",
    "cubical.loop_system_s", "cubical.word_class_s",
    "cubical.basis_certificate_s",
    "words.normal_form_s", "words.normal_form_calls", "words.letters_in",
    "words.letters_out", "words.reduction_ratio", "words.evaluate_s",
    "words.reflection_s",
    "commutators.enumerate_s", "commutators.generators",
    "commutators.count_s", "commutators.per_length_s",
    "cli.parse_s", "cli.self_s", "cli.stdout_bytes",
    "trace.overhead_s",
]
EXACT_COUNTS = ["intlinalg.smith_calls", "intlinalg.smith_nnz_in",
                "words.letters_in", "words.letters_out", "cubical.cells",
                "commutators.generators", "simplicial.cache_hits",
                "simplicial.cache_misses"]


def bench(*args, cwd=ROOT):
    """Run the benchmark from the root of ``cwd``; returns the process."""
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_splitting():
    return [result_of(bench("--workload", "splitting", "--seed", "5",
                            "--seconds", "0.5", "--trace", "1"))
            for _ in range(2)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    wl = WORKLOADS[name]

    def first_blocks(seed, count=8):
        blocks = wl.blocks(seed, wl.pool())
        return [[wl.key(doc) for doc in next(blocks)] for _ in range(count)]

    assert first_blocks(3) == first_blocks(3)
    assert first_blocks(3) != first_blocks(4)


def test_pool_has_a_reference_for_every_input():
    for wl in WORKLOADS.values():
        refs = run.load_refs(wl)
        assert {wl.key(doc) for doc in wl.pool()} == set(refs), wl.name


def run_in_process(monkeypatch, workload, refs=None, failing_run=False):
    wl = WORKLOADS[workload]
    if refs is not None:
        monkeypatch.setattr(run, "load_refs", lambda _: refs)
    if failing_run:
        def broken(cx, prepared):
            raise RuntimeError("injected")
        monkeypatch.setattr(wl, "run", broken)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1",
                         "--seconds", "0.1", "--trace", "0"])
    assert code == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_wrong_expected_value_raises_error_rate(monkeypatch):
    wl = WORKLOADS["splitting"]
    pool = wl.pool()
    refs = run.load_refs(wl)
    victim = wl.key(next(wl.blocks(1, pool))[0])
    refs[victim] = dict(refs[victim], table=[[0], [[]]])
    report, result = run_in_process(monkeypatch, "splitting", refs)
    assert report["error_rate"] > 0
    assert result["failed"] >= 1 and result["correct"] is False
    assert any(victim in f for f in report["failures"])


def test_raising_operation_counts_as_failed(monkeypatch):
    report, result = run_in_process(monkeypatch, "splitting",
                                    failing_run=True)
    assert report["error_rate"] == 1.0
    assert result["failed"] == result["attempted"] >= 1


def test_end_to_end_names_match_benchmark_json():
    report, result = result_of(bench("--workload", "splitting", "--seed", "2",
                                     "--seconds", "0.3", "--trace", "0"))
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["latency_samples"] == result["attempted"]
    for field in ("python", "nproc", "cpu", "error_rate"):
        assert field in report


def test_per_layer_names_match_benchmark_json(traced_splitting):
    _, result = traced_splitting[0]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_run_emits_every_required_layer_metric(traced_splitting):
    _, result = traced_splitting[0]
    missing = set(REQUIRED_LAYER_METRICS) - set(result["metrics"])
    assert not missing


def test_exact_counts_repeat_between_runs(traced_splitting):
    (_, first), (_, second) = traced_splitting
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["intlinalg.smith_calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "words", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_clock_scales_wall_time_by_the_probe():
    import signal
    import time

    from hostclock import PROBE_REF_S, HostClock, probe

    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        clock.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            sum(i * i for i in range(1000))
        scaled, wall = clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    # the probes ran inside the interval but are not part of its wall time
    assert 0.025 < wall < time.perf_counter() - t0
    speed = PROBE_REF_S / probe()
    assert 0.3 * speed < scaled / wall < 3 * speed
