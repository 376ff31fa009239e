"""Two sweeps sharing one cache root: the ledger and the result cache.

Two fresh interpreters run the same grid on one cache root at the same
time, re-executing every cell each round (``force=True``) so both write
every result-cache entry, and between rounds append ledger records far
larger than a text-stream buffer.  The shared state must come out whole:
every ledger record parses (no interleaved or torn lines), and every
cached cell equals what a single-process run computes.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.sweep import ResultCache, RunLedger, SweepSpec, run_sweep

SPEC = SweepSpec(
    workloads=("micro", "base"),
    methods=("lrgp", "hill_climb"),
    iterations=(20,),
)
ROUNDS = 6
BIG_RECORDS_PER_ROUND = 16
BIG_RECORD_CHARS = 100_000  # well past a 64 KB write

_SRC = Path(__file__).resolve().parents[2] / "src"

#: One writer: meet the other at a file barrier, then alternate forced
#: sweeps of SPEC with oversized ledger appends.
_WRITER = f"""
import sys
import time
from pathlib import Path

from repro.sweep import ResultCache, RunLedger, SweepSpec, run_sweep

root, writer, barrier = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
spec = SweepSpec(
    workloads={SPEC.workloads!r},
    methods={SPEC.methods!r},
    iterations={SPEC.iterations!r},
)
ledger = RunLedger(root)
(barrier / writer).touch()
while len(list(barrier.iterdir())) < 2:
    time.sleep(0.005)
for round_index in range({ROUNDS}):
    run_sweep(spec, cache=ResultCache(root), force=True)
    for index in range({BIG_RECORDS_PER_ROUND}):
        seq = round_index * {BIG_RECORDS_PER_ROUND} + index
        ledger.append(
            {{"writer": writer, "seq": seq, "blob": writer * {BIG_RECORD_CHARS}}}
        )
"""


def test_two_sweeps_on_one_root_keep_ledger_and_cache_whole(tmp_path):
    root = tmp_path / "shared"
    barrier = tmp_path / "barrier"
    barrier.mkdir()
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(root), tag, str(barrier)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for tag in ("a", "b")
    ]
    try:
        for writer in writers:
            _, stderr = writer.communicate(timeout=120)
            assert writer.returncode == 0, stderr
    finally:
        for writer in writers:
            if writer.poll() is None:
                writer.kill()
                writer.wait()

    ledger = RunLedger(root)
    records = ledger.records()
    assert ledger.corrupt_lines == 0
    sweeps = [record for record in records if "spec_hash" in record]
    assert len(sweeps) == 2 * ROUNDS
    assert {record["executed"] for record in sweeps} == {len(SPEC.expand())}
    big = [record for record in records if "writer" in record]
    expected_seqs = set(range(ROUNDS * BIG_RECORDS_PER_ROUND))
    for tag in ("a", "b"):
        mine = [record for record in big if record["writer"] == tag]
        assert {record["seq"] for record in mine} == expected_seqs
        assert all(record["blob"] == tag * BIG_RECORD_CHARS for record in mine)
    assert len(records) == len(sweeps) + len(big)

    reference = run_sweep(SPEC, cache=ResultCache(tmp_path / "ref"), ledger=False)
    shared = ResultCache(root)
    assert len(shared) == len(reference.cells)
    for cell in reference.cells:
        entry = shared.get(cell.key)
        assert entry is not None, cell.label
        assert entry["config"] == cell.config.to_dict()
        for section in ("kind", "label", "result", "metrics"):
            assert entry["payload"][section] == cell.payload[section], (
                cell.label,
                section,
            )
    assert shared.corrupt_hits == 0
