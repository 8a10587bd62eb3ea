"""Fixtures shared by the test modules."""

import pytest

from cambrian.coxeter import CoxeterSystem


@pytest.fixture
def fault_left_descents(monkeypatch):
    """``fault_left_descents(system, fault)``: the memoized ``system`` reads
    ``fault(descents, w)`` as its left descents of w, every other system
    its own.  The class is patched, not the instance: undoing an instance
    patch leaves the old bound method behind as an instance attribute,
    which a later class-level patch no longer reaches."""

    def patch(system, fault):
        real = CoxeterSystem.left_descents

        def left_descents(self, w):
            descents = real(self, w)
            return fault(descents, w) if self is system else descents

        monkeypatch.setattr(CoxeterSystem, "left_descents", left_descents)

    return patch
