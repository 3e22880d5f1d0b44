"""Every ``__all__`` in the package names something that exists."""

import importlib
import pkgutil

import repro


def test_all_names_resolve():
    names = ["repro"] + [
        name
        for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
        if not name.endswith(".__main__")
    ]
    missing = {}
    for name in names:
        mod = importlib.import_module(name)
        bad = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        if bad:
            missing[name] = bad
    assert len(names) > 50  # the walk really covered the package
    assert not missing, f"__all__ lists undefined names: {missing}"
