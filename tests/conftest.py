"""Shared fixtures for the test suite."""

import os

import pytest
from hypothesis import settings

from repro.datasets import figure1_document, two_journal_document
from repro.xmlmodel.generator import RandomDocumentPool, journal_document

# Bounded profile for property tests on CI: no wall-clock deadline (shared
# runners are noisy) and a fixed, moderate example budget so the suite's
# runtime is predictable.  Tests that pin their own ``max_examples`` via
# ``@settings`` keep their explicit budget.  Select with HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", deadline=None, max_examples=40,
                          derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def figure1():
    """The document of Figure 1 of the paper."""
    return figure1_document()


@pytest.fixture
def two_journals():
    """A two-journal catalogue (second journal has no title)."""
    return two_journal_document()


@pytest.fixture
def catalogue():
    """A mid-sized journal catalogue used for evaluation tests."""
    return journal_document(journals=4, articles_per_journal=2, authors_per_article=2)


@pytest.fixture(scope="session")
def document_pool():
    """A pool of random documents used for empirical equivalence checks."""
    return RandomDocumentPool(seeds=range(6), max_depth=4, max_children=3).documents()
