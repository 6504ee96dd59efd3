"""Tests of the benchmark itself: seeded inputs and known-answer checks."""

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import empty_summary  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_writes_byte_identical_inputs(tmp_path):
    for workload in inputs.WORKLOADS:
        first = tmp_path / workload / "first"
        second = tmp_path / workload / "second"
        inputs.write_inputs(workload, 7, first)
        inputs.write_inputs(workload, 7, second)
        assert _files(first) == _files(second), workload


def test_other_seed_changes_corpus_inputs(tmp_path):
    inputs.write_inputs("corpus", 1, tmp_path / "one")
    inputs.write_inputs("corpus", 2, tmp_path / "two")
    one = json.loads((tmp_path / "one" / "manifest.json").read_text())
    two = json.loads((tmp_path / "two" / "manifest.json").read_text())
    assert one["complexes"] != two["complexes"]


def test_corpus_complexes_have_the_promised_shape():
    for item in inputs.corpus_complexes(3):
        n, d, fan = item["n"], item["d"], item["fan"]
        assert n in (2, 3, 4) and 1 <= d <= n - 1
        assert 1 <= len(fan["cells"]) <= 3
        for cell in fan["cells"]:
            assert inputs._rank([[int(x) for x in r] for r in cell["span"]]) \
                == d


def test_wrong_expected_value_counts_a_failure(tmp_path):
    in_dir = tmp_path / "inputs"
    in_dir.mkdir()
    (in_dir / "orbit.json").write_text(json.dumps(
        {"ambient_dim": 2, "cells": [{"span": [["1", "2"]]}]}))
    calls = [{"argv": ["dim", "orbit.json"], "expect": {"value": 1}},
             {"argv": ["dim", "orbit.json"], "expect": {"value": 2}}]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workload = run.ProcessWorkload({"calls": calls}, in_dir, env, tmp_path)
    result = run.measure(workload, 0.0, traced=False)
    assert len(result.call_s) == 2
    assert len(result.failures) == 1
    assert "value = 1, expected 2" in result.failures[0]


def test_wrong_exit_code_counts_a_failure():
    call = {"argv": ["verify"], "expect": {"verdict": "agree"}}
    assert run.check_call(call, 0, {"verdict": "agree"}) is None
    assert run.check_call(call, 5, {"verdict": "agree"}) is not None
    assert run.check_call(call, 0, {"verdict": "mismatch"}) is not None


def test_corpus_check_flags_an_oracle_disagreement():
    from amoebadim.polyhedral import parse_complex
    from amoebadim.subspace_search import amoeba_dim

    item = inputs.corpus_complexes(1)[1]
    sigma = parse_complex(json.dumps(item["fan"]))
    result = amoeba_dim(sigma)
    oracle = amoeba_dim(sigma, strategy=inputs.ORACLE_STRATEGY)
    assert run.check_corpus(item, sigma, result, oracle) is None
    wrong = dict(item, d=item["d"] + 1)
    assert run.check_corpus(wrong, sigma, result, oracle) is not None
    wrong_oracle = replace(oracle, value=oracle.value + 1)
    assert run.check_corpus(item, sigma, result, wrong_oracle) is not None


def test_contract_lists_every_metric_run_py_reports():
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for section, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in contract[section]}
        assert declared == table, section


def _traced_measurement(passes: int) -> run.Measurement:
    """`passes` traced passes of two units, each pass making four
    exhaustive calls over two distinct keys."""
    trace = empty_summary()
    trace["exhaustive_keys"] = [[2, 2], [3, 2], [2, 2], [3, 2]] * passes
    return run.Measurement(2, [[1.0] * passes, [1.0] * passes],
                           [[0.001] * passes, [0.001] * passes], 1,
                           [1.0] * (2 * passes), [0.001],
                           [run.Answer() for _ in range(2 * passes)], trace)


def test_layer_figures_do_not_move_with_the_number_of_passes():
    families_trace = {"stats": {"families": [11, 0.5, 0.25]}}
    plain = _traced_measurement(1)
    figures = [run.per_layer_metrics(plain, _traced_measurement(passes),
                                     families_trace, 0.2)
               for passes in (1, 3)]
    for metrics in figures:
        assert metrics["subspace_search.exhaustive.calls"] == 4
        assert metrics["subspace_search.exhaustive.distinct_share"] == 0.5
        assert metrics["families.calls"] == 11
        assert metrics["families.s"] == 0.25
