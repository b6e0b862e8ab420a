"""Every entry point the perfbench timing shims patch must still resolve.

``perfbench`` patches layer entry points by name, and its untraced run
calls :func:`tracing.assert_no_shims`, which looks each one up.  A
refactor that deletes or renames one of those names would make every
benchmark run fail; this test catches it in the tier-1 suite instead.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_shim_target_resolves_unpatched(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracing.assert_no_shims()
