"""Suite registry behavior; the heavy batteries run in the acceptance
gate."""

import pytest

from renzeta.laurent import TruncatedLaurentSeries
from renzeta.suites import SUITES, run_suite


def test_registry_names():
    assert set(SUITES) == {
        "hopf", "rota-baxter", "birkhoff", "differential", "mzv"}


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


def test_small_birkhoff_battery():
    reports = run_suite("birkhoff", max_weight=2, seed=0)
    assert [r.check for r in reports] == [
        "decomposition-identity", "range-discipline",
        "renormalized-multiplicativity", "length-two-closed-form"]
    assert all(r.passed for r in reports)


def test_small_mzv_battery():
    reports = run_suite("mzv", max_weight=2, seed=0)
    assert all(r.passed for r in reports), \
        [r.check for r in reports if not r.passed]


def test_seeded_suites_are_deterministic():
    first = run_suite("rota-baxter", max_weight=3, seed=11)
    second = run_suite("rota-baxter", max_weight=3, seed=11)
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


def test_all_concatenates_every_suite():
    # max_weight 1 keeps the exhaustive parts tiny
    reports = run_suite("all", max_weight=1, seed=0)
    seen = {r.check for r in reports}
    assert "product-oracle" in seen
    assert "rota-baxter-weight-minus-one" in seen
    assert "decomposition-identity" in seen
    assert "differential-plus" in seen
    assert "double-zero-value" in seen


def test_differential_battery_formats_only_failures(monkeypatch):
    # every report passes, so no series is ever turned into text
    to_text = TruncatedLaurentSeries.__str__
    calls = []

    def counting(series):
        calls.append(1)
        return to_text(series)

    monkeypatch.setattr(TruncatedLaurentSeries, "__str__", counting)
    reports = run_suite("differential", max_weight=3)
    assert [r.check for r in reports] == [
        "differential-plus", "differential-minus", "character-derivative"]
    assert all(r.passed for r in reports)
    assert calls == []
