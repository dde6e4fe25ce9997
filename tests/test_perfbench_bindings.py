"""The benchmark's trace mode rebinds dpcover functions by module and name
(perfbench/layers.py). Renaming or deleting a traced name breaks only the
benchmark, so this checks every binding still resolves to a callable."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_is_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    traced = []

    class Probe:
        def wrap(self, owner, attr, name, observe):
            assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr}"
            traced.append(name)

    layers.install(Probe())
    assert "linalg.pseudo_inverse" in traced
