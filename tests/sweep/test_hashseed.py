"""Cache keys and canonical hashes must not depend on ``PYTHONHASHSEED``.

The sweep cache's whole value proposition is that the same cell config
addresses the same entry on every machine, every process, every run.
Python's per-process hash randomization is the classic way that breaks
— ``set``/``dict`` ordering leaking into serialized forms — so this test
computes the full hash surface (RunConfig cache keys, grid expansion
hashes, and the canonical JSON of a SolveResult as the cache stores it)
in fresh interpreters under different hash seeds and asserts
byte-identity.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parents[2]

#: Runs in a fresh interpreter: every canonical-hash surface on stdout.
_SCRIPT = """
import json
import sys

from repro.canonical import canonical_json
from repro.solve import solve
from repro.sweep import RunConfig, SweepSpec, cache_salt
from repro.workloads import get_workload

config = RunConfig(
    workload="tree:flows=2,depth=2",
    gamma="fixed:0.05",
    fault_plan=(("horizon", 80.0), ("crash_rate", 0.05), ("warmup", 10.0)),
    iterations=15,
    seed=3,
)
spec = SweepSpec(
    workloads=("micro", "flows-x2"),
    methods=("lrgp", "annealing"),
    engines=(None, "vectorized"),
    iterations=(10,),
    seeds=(0, 1),
)
result = solve(get_workload("micro"), iterations=12)

payload = {
    "cell_key": config.config_hash(cache_salt()),
    "grid_hashes": [cell.config_hash() for cell in spec.expand()],
    "solve_json": canonical_json(result.canonical_dict()),
}
json.dump(payload, sys.stdout, sort_keys=True)
"""


def _run_leg(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        cwd=_REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, (
        f"PYTHONHASHSEED={hash_seed} leg failed:\n{completed.stderr}"
    )
    return completed.stdout


class TestHashSeedIndependence:
    @pytest.fixture(scope="class")
    def legs(self):
        return {seed: _run_leg(seed) for seed in ("0", "1", "12345")}

    def test_each_leg_produces_hashes(self, legs):
        for seed, output in legs.items():
            payload = json.loads(output)
            assert len(payload["cell_key"]) == 64, f"seed {seed}"
            assert payload["grid_hashes"], f"seed {seed}: empty grid"

    def test_hashes_are_byte_identical_across_hash_seeds(self, legs):
        outputs = set(legs.values())
        assert len(outputs) == 1, (
            "canonical hashes depend on PYTHONHASHSEED; an unordered "
            "set/dict is leaking into a canonical serialization "
            "(see lint rule R11 and repro.canonical)"
        )
