"""Smoke tests for the benchmark: every workload at its smallest size,
untraced and traced, plus the tracer's install/uninstall round trip."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py"]


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["lattice", "strings", "cli"])
def test_smallest_size_passes_its_checks(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--scale", "smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "lattice", "--seed", "3", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_restores_every_name():
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.tracer import LAYERS, Tracer

    modules = [sys.modules[name] for name in list(sys.modules)
               if name == "monoidtopos" or name.startswith("monoidtopos.")]
    modules += [importlib.import_module(f"monoidtopos.{layer}") for layer in LAYERS]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    classes = {id(v): dict(vars(v)) for v in before.values() if isinstance(v, type)}
    tracer = Tracer()
    tracer.install()
    assert tracer._restore
    tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    for value in before.values():
        if isinstance(value, type):
            assert all(vars(value)[k] is v for k, v in classes[id(value)].items())
