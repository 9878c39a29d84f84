"""The suite's warning filters (pyproject.toml): every DeprecationWarning is
an error except the one that importing hypothesis's failure reporter
raises, so a failing property test shows its falsifying example."""

import warnings

import pytest


def test_only_the_mypy_extensions_deprecation_is_ignored():
    with warnings.catch_warnings(record=True) as caught:
        warnings.warn("mypy_extensions.TypedDict is deprecated",
                      DeprecationWarning)
    assert caught == []
    with pytest.raises(DeprecationWarning, match="something else"):
        warnings.warn("something else is deprecated", DeprecationWarning)
