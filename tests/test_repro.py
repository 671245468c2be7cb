"""Reproduction manifest: structure, row checking, and the light targets."""

import pytest

from castleqec import quantum, repro
from castleqec.agcodes import CodeSequence, certify_duality
from castleqec.curves import CATALOGUE, evaluation_set_from_json
from castleqec.quantum import QuantumParams, scan_sequence
from castleqec.repro import (
    TAG_STATUS,
    TARGETS,
    ExpectedRow,
    check_row,
    run_target,
    target_ids,
)

EXPECTED_IDS = [
    "suzuki8",
    "elliptic-gf4",
    "elliptic-gf9",
    "hyper-even",
    "normtrace",
    "hermitian-trace",
    "maximal-q8",
    "maximal-q9",
    "maximal-2-6",
]


def test_manifest_structure():
    assert target_ids() == EXPECTED_IDS
    total = 0
    for target in TARGETS.values():
        assert target.description
        for row in target.rows:
            total += 1
            assert row.label
            assert row.check in ("exact", "bound", "dimension")
            assert row.tag in (None, "dagger", "ddagger")
            assert row.n > row.k >= 0 and row.d >= 1
    assert total == 38


def test_tag_status_map():
    assert TAG_STATUS == {"dagger": "meets", "ddagger": "exceeds"}


def test_unknown_target():
    with pytest.raises(ValueError, match="unknown reproduction target"):
        run_target("bogus")


def test_run_elliptic_gf4():
    report = run_target("elliptic-gf4")
    assert report.passed
    (result,) = report.results
    assert str(result.params) == "[[8,6,2]]_2"
    assert result.params.d_provenance == "exact"
    assert result.gv == "exceeds"
    assert result.notes == ()


def test_run_suzuki8_notes_the_improved_distance():
    report = run_target("suzuki8")
    assert report.passed
    by_label = {r.row.label: r for r in report.results}
    improved = by_label["construction C, i=5"]
    assert improved.params.d == 4  # enumeration beats the listed 3
    assert improved.row.d_true == 4
    assert any("improves on the listed 3" in note for note in improved.notes)
    for label in ("construction C, i=11", "construction C, i=14"):
        assert by_label[label].params.d_provenance == "lower-bound"
    assert by_label["binary trace, m=10"].params.construction == "trace"


def test_run_normtrace_notes_the_gv_discrepancy():
    report = run_target("normtrace")
    assert report.passed
    flagged = [r for r in report.results if r.notes]
    assert len(flagged) == 1
    assert flagged[0].row.triple() == "[[32,26,3]]_8"
    assert flagged[0].gv == "meets"  # the listed tag claims "exceeds"


def _row_constructions(target):
    return [construction for _, construction, at in target.builds for _ in at]


def test_builds_match_rows():
    for identifier, target in TARGETS.items():
        assert len(_row_constructions(target)) == len(target.rows), identifier
        for curve, construction, _ in target.builds:
            assert curve in CATALOGUE
            assert construction in ("C", "hermitian", "trace", "incomplete-trace")


def test_sequence_rows_come_from_the_scan_step(monkeypatch):
    """Every C and hermitian row is made by quantum.level_step, the step scan_sequence runs."""
    assert repro.level_step is quantum.level_step
    original, made = quantum.level_step, []

    def spy(*args, **kwargs):
        step = original(*args, **kwargs)

        def recorded(i):
            made.append(step(i))
            return made[-1]

        return recorded

    monkeypatch.setattr(quantum, "level_step", spy)
    monkeypatch.setattr(repro, "level_step", spy)
    for identifier, target in TARGETS.items():
        made.clear()
        results = run_target(identifier).results
        for construction, result in zip(_row_constructions(target), results, strict=True):
            from_step = any(result.params is params for params in made)
            assert from_step == (construction in ("C", "hermitian")), (identifier, result.row.label)
    made.clear()
    ev = evaluation_set_from_json(CATALOGUE["elliptic-gf4"])
    scanned = scan_sequence(CodeSequence(ev), certify_duality(ev), "hermitian")
    assert [params for _, params in scanned] + [None] == made  # None: the gate closed


def test_sequence_rows_are_levels_of_the_scan():
    for identifier in ("elliptic-gf9", "hyper-even"):
        target = TARGETS[identifier]
        results = iter(run_target(identifier).results)
        for curve, construction, at in target.builds:
            rows = [next(results).params for _ in at]
            ev = evaluation_set_from_json(CATALOGUE[curve])
            seq = CodeSequence(ev)
            levels = at if construction == "C" else [seq.ms.index(m) + 1 for m in at]
            scanned = dict(scan_sequence(seq, certify_duality(ev), construction, max_i=max(levels)))
            assert [scanned[i] for i in levels] == rows, (identifier, curve)


def test_maximal_runners_build_through_the_rows_hook(monkeypatch):
    """The benchmark captures the maximal targets' evaluation sets through _maximal_rows."""
    built = []
    monkeypatch.setattr(repro, "_maximal_rows", lambda ev, poles, budget: built.append((ev.n, poles)) or [])
    for runner in (repro._maximal_q8, repro._maximal_q9, repro._maximal_2_6):
        assert runner(None) == []
    assert built == [(256, (0, 9, 18, 27)), (243, (0, 10, 20, 23)), (128, (0, 9, 11, 13))]


ROW = ExpectedRow("row", 64, 62, 2, 8, "dagger", "exact")


def _params(n=64, k=62, d=2, q=8, prov="exact", construction="C"):
    return QuantumParams(n, k, d, q, prov, construction)


def test_check_row_passes():
    result = check_row(ROW, _params())
    assert result.passed and result.gv == "meets"


def test_check_row_dimension_mismatch():
    result = check_row(ROW, _params(k=60))
    assert not result.passed
    assert "expected [[64,62,2]]_8" in result.failures[0]


def test_check_row_exact_needs_enumeration():
    result = check_row(ROW, _params(d=2, prov="lower-bound"))
    assert result.failures == ("exact distance unavailable within budget",)


def test_check_row_wrong_exact_distance():
    result = check_row(ROW, _params(d=3))
    assert "exact distance 3 != 2" in result.failures


def test_check_row_bound_gap():
    row = ExpectedRow("row", 243, 213, 9, 9, "dagger", "bound")
    result = check_row(row, _params(243, 213, 5, 9, "lower-bound"))
    assert result.failures == ("bound-gap: certified bound 5 < listed 9",)
    # an exact shortfall is a plain mismatch, not a bound gap
    result = check_row(row, _params(243, 213, 5, 9, "exact"))
    assert result.failures == ("exact distance 5 < listed 9",)
    # a bound that reaches the listed value passes
    assert check_row(row, _params(243, 213, 9, 9, "lower-bound")).passed


def test_check_row_dimension_mode_ignores_distance():
    row = ExpectedRow("row", 243, 213, 9, 9, "dagger", "dimension")
    assert check_row(row, _params(243, 213, None, 9, "lower-bound")).passed


def test_check_row_untagged_must_not_beat_gv():
    row = ExpectedRow("row", 8, 6, 2, 2, None, "exact")
    result = check_row(row, _params(8, 6, 2, 2))
    assert result.failures == ("untagged row classifies as exceeds",)


def test_check_row_tag_mismatch():
    row = ExpectedRow("row", 8, 6, 2, 2, "dagger", "exact")
    result = check_row(row, _params(8, 6, 2, 2))
    assert result.failures == ("GV status exceeds != meets",)


def test_check_row_gv_override():
    row = ExpectedRow("row", 32, 26, 3, 8, "ddagger", "exact", gv_true="meets")
    result = check_row(row, _params(32, 26, 3, 8))
    assert result.passed
    assert result.notes == ("listed tag claims exceeds but exact arithmetic gives meets",)
