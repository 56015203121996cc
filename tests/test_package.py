"""The package namespace: every exported name resolves, once."""

from __future__ import annotations

import njkit


def test_every_exported_name_resolves_and_appears_once():
    names = njkit.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(njkit, name)]
    assert not missing
    assert "fn_bracket_decomposable" not in names
    assert "commutator_from_action" not in names
