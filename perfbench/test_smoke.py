"""Every workload at minimal size, traced, and the benchmark's refusal to run without sources."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
# one round each; cli-cold's `phi --lam 500` op fails every time (README.md)
EXPECTED_FAILED = {"roundtrip-fresh": 0, "roundtrip-shared": 0, "pointwise-adaptive": 0, "cli-cold": 1}
# self time of the layers each workload must reach, set-up included
CALLED = {
    "roundtrip-fresh": ("groups.preset.s", "spherical.phi.s", "cfunction.plancherel_density.s",
                        "transform.wave_packet.s", "transform.packet_eval.s",
                        "transform.hc_transform.s"),
    "roundtrip-shared": ("groups.preset.s", "spherical.phi.s", "transform.wave_packet.s",
                         "transform.hc_transform.s", "schwartz.image_membership.s"),
    "pointwise-adaptive": ("groups.preset.s", "spherical.phi.s", "cfunction.plancherel_density.s",
                           "specfun.integrate_interval.s", "transform.hc_transform_at.s",
                           "transform.convolve_at_identity.s", "transform.expansion_term.s",
                           "schwartz.tube_extension_check.s"),
    "cli-cold": ("groups.preset.s", "spherical.phi.s", "cfunction.c_function.s",
                 "transform.hc_transform.s", "transform.wave_packet.s", "cli.main.s",
                 "cli.import_s"),
}


def test_every_workload_runs_one_clean_round_with_every_layer_traced():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    procs = {
        w: subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", w, "--seed", "7",
             "--rounds", "1", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        for w in EXPECTED_FAILED
    }
    for workload, proc in procs.items():
        out, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0, workload
        lines = out.strip().splitlines()
        assert lines[0].split()[0] == "ready"
        res = json.loads(lines[-1])
        assert res["correct"], workload
        assert res["attempted"] > 0
        assert res["failed"] == EXPECTED_FAILED[workload], workload
        assert res["worst_ratio"] <= 1.0
        metrics = layers.Tracer()
        metrics.add(res["layers"])
        per_op = metrics.per_op(res["attempted"] - res["failed"])
        assert [name for name, _ in layers.LAYER_METRICS] == list(per_op)
        for name in CALLED[workload]:
            assert per_op[name]["value"] > 0, (workload, name)


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(EXPECTED_FAILED)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "ops_per_s", "peak_rss_mb"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.LAYER_METRICS)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
