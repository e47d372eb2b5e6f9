"""The OSCTAB_MAX_ENUM walk cap, which tableaux.max_enumeration_size reads."""

import pytest

from osctab.tableaux import max_enumeration_size


def test_max_enumeration_size_default(monkeypatch):
    monkeypatch.delenv("OSCTAB_MAX_ENUM", raising=False)
    assert max_enumeration_size() == 10**7


def test_max_enumeration_size_env(monkeypatch):
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "123")
    assert max_enumeration_size() == 123
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "junk")
    with pytest.raises(ValueError):
        max_enumeration_size()
    monkeypatch.setenv("OSCTAB_MAX_ENUM", "0")
    with pytest.raises(ValueError):
        max_enumeration_size()
