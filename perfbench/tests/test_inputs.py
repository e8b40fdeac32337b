import json
import os

import pytest

import run
import workloads as wl


@pytest.mark.parametrize("workload", ["pretrain-graph", "finetune-eval"])
def test_one_seed_always_generates_the_same_bytes(tmp_path, workload):
    a, b, c = (str(tmp_path / d) for d in "abc")
    wl.generate_inputs(workload, 7, a)
    wl.generate_inputs(workload, 7, b)
    wl.generate_inputs(workload, 8, c)
    da, db, dc = wl.file_digests(a), wl.file_digests(b), wl.file_digests(c)
    assert da == db
    assert wl.combined_digest(da) != wl.combined_digest(dc)
    assert "kg.tsv" in da and "corpus.txt" in da
    if workload == "finetune-eval":
        assert os.path.join("start", "checkpoint.drgn") in da
        for name, (_, n) in wl.FT_SUBSETS.items():
            with open(os.path.join(a, name), encoding="utf-8") as fh:
                assert len(fh.readlines()) == n


def test_traced_run_matches_untraced_outputs(monkeypatch, capsys):
    monkeypatch.setattr(wl, "PRETRAIN_STEPS", 3)
    monkeypatch.setattr(wl, "LOSS_TAIL", 2)
    rc = run.main(["--workload", "pretrain-graph", "--seed", "5", "--seconds", "0",
                   "--trace", "1"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 6
    metrics = result["metrics"]
    assert metrics["numerics.tape_ops_per_step"]["value"] > 0
    assert metrics["encoder.gnn_ms_per_step"]["value"] > 0
    assert metrics["trace.unattributed_frac"]["value"] < 0.5


def test_refuses_to_run_without_program_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    rc = run.main(["--workload", "pretrain-graph", "--seed", "1", "--seconds", "1"])
    assert rc != 0
    assert capsys.readouterr().out == ""
