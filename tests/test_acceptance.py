"""Acceptance criteria: every ``coxlift check`` suite must pass.

The criteria are encoded once, in ``coxlift.checks``; its module
docstring maps criteria c01-c12 to suites.  A failing suite shows its
whole report, one line per assertion.

The ``roos`` and ``klyachko`` suites each carry several criteria, so
those criteria also get a test of their own that reads the assertions
of that criterion from the suite's report.  Each suite runs once.
"""

import functools

import pytest

from coxlift.checks import SUITES, run_suite

_report = functools.cache(run_suite)


def _assert_criterion(suite, *labels):
    """The named assertions of ``suite`` are all present and all hold."""
    report = _report(suite)
    picked = [a for a in report.assertions if a.label in labels]
    assert sorted(a.label for a in picked) == sorted(labels)
    assert all(a.ok for a in picked), "\n".join(report.lines())


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite(name):
    report = _report(name)
    assert report.ok, "\n".join(report.lines())


def test_c05_oracle_equivalence():
    _assert_criterion("roos", "oracle agreement on 50 randomized (module, degree) pairs")


def test_c06_filtration_equivalence():
    _assert_criterion("klyachko",
                      "lift equals ray-space intersection for 20 random descriptions")


def test_c08_roos_engine():
    _assert_criterion("roos",
                      "crown constant diagram lim dims",
                      "posets with a minimum have vanishing higher limits",
                      "constant diagrams match simplicial cohomology on 10 random posets")


def test_c11_torsion_free_restrictions_injective():
    _assert_criterion("klyachko",
                      "all restriction maps injective for torsion-free inputs")


def test_c12_intersection_completion():
    _assert_criterion("klyachko",
                      "generic rank-3 arrangement gains intersections under lifting",
                      "smooth chart realizes every intersection already")
