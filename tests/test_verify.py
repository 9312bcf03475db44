"""The oracle suites' registry: gate order, printed tolerances, budgets."""

import dataclasses
import itertools

from arcflow import verify
from arcflow.cli import main

GATE_ORDER = [
    "coefficient_continuity",
    "operator_vs_quadrature",
    "operator_additivity",
    "exact_interpolation",
    "gradient_check",
    "degenerate_mixing",
    "teacher_consistency",
]
BUDGETS = {
    "coefficient_continuity": "1s",
    "operator_vs_quadrature": "30s",
    "gradient_check": "120s",
    "teacher_consistency": "180s",
}


def test_verify_prints_one_tolerance_line_per_suite_in_gate_order(
        monkeypatch, capsys):
    stubs = [dataclasses.replace(suite, body=lambda **sizes: (True, "stub"))
             for suite in verify.SUITES]
    monkeypatch.setattr(verify, "SUITES", stubs)
    assert main(["verify"]) == 0
    block, lines, summary = capsys.readouterr().out.strip().split("\n\n")
    head, *tolerances = block.splitlines()
    assert head == "tolerances:"
    names = [line.split(":")[0].strip() for line in tolerances]
    assert names == GATE_ORDER
    for name, line in zip(names, tolerances):
        if name in BUDGETS:
            assert line.endswith(f", in under {BUDGETS[name]}"), line
        else:
            assert "under" not in line, line
    assert [line.split(":")[0] for line in lines.splitlines()] == [
        f"[PASS] {name}" for name in GATE_ORDER]
    assert summary == "7/7 suites passed"


def test_suite_over_its_budget_fails_and_names_the_budget(monkeypatch):
    # every clock reading is 1.5 s after the last one
    clock = itertools.count(0.0, 1.5)
    monkeypatch.setattr(verify.time, "perf_counter", lambda: next(clock))
    result = verify.coefficient_continuity_suite()
    assert result.line().startswith("[FAIL] coefficient_continuity: ")
    assert "worst/bound=0.050" in result.detail
    assert result.detail.endswith("; over its 1s budget")
    # a suite with no budget passes however long it takes
    assert verify.operator_additivity_suite().passed
