"""Session-scoped fixtures for the expensive offline constructions, and
a counter of support LPs."""

import pytest

import systems


@pytest.fixture(scope="session")
def fig2():
    return systems.fig2_bundle()


@pytest.fixture(scope="session")
def fig2_gov(fig2):
    return systems.governor_stack(fig2, 2)


@pytest.fixture(scope="session")
def y1_gov(y1):
    return systems.governor_stack(y1, 10)


@pytest.fixture(scope="session")
def wide_gov():
    return systems.wide_box_stack()


@pytest.fixture(scope="session")
def y1():
    return systems.y1_bundle()


@pytest.fixture(scope="session")
def y2():
    return systems.y2_bundle()


@pytest.fixture(scope="session")
def y3():
    return systems.y3_bundle()


@pytest.fixture
def support_lps(monkeypatch):
    """The list that gets one entry per LP solved from here on, counted
    once at the one LP driver (SupportLp._run): every support_value and
    solve_lp, and every warm-started hull LP of HPolyhedron.project; its
    length is the count."""
    from fgmpc.solver import SupportLp

    calls = []
    real = SupportLp._run

    def counted(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SupportLp, "_run", counted)
    return calls
