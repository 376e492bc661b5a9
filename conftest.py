"""Pytest bootstrap: make the in-tree package importable without installation.

The project is normally installed with ``pip install -e .`` (or
``python setup.py develop`` in offline environments without the ``wheel``
package); this shim additionally lets ``pytest`` and the benchmark suite run
straight from a source checkout.

It also holds the one seam that reaches the expectation engine as a
whole-index engine, shared by ``tests/`` and ``benchmarks/``:
:func:`forced_fallback` makes the automaton compiler decline every union
member, so each one lands in the fallback trie and is matched step by step
by the expectation engine — the differential semantics reference the
default route (automaton, gates, fallback trie) is pinned against.
"""

import contextlib
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


@contextlib.contextmanager
def _forced_fallback():
    """Compile every union member onto the fallback trie while active.

    The automaton compiler asks :func:`repro.xpath.analysis
    .automaton_split_member` where each member hands off to the expectation
    engine; ``None`` means "not even the first step", so the member goes to
    the fallback trie.  An index compiles its automaton on its first
    ``matcher()`` and caches it (live churn compiles new members too), so
    build *and* churn a forced index inside the block, and never share an
    index between the forced and the default route.
    """
    from repro.xpath import analysis

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "automaton_split_member", lambda member: None)
        yield


@pytest.fixture
def forced_fallback():
    """The :func:`_forced_fallback` context manager, for tests and
    benchmarks that compare both routes within one function."""
    return _forced_fallback


@pytest.fixture(params=("default", "fallback"))
def route(request):
    """The two engine routes every differential suite runs on: the test
    runs once on the default route and once with every member forced onto
    the fallback trie (the expectation engine), for the whole test body."""
    if request.param == "fallback":
        with _forced_fallback():
            yield request.param
    else:
        yield request.param
