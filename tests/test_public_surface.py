"""The public surface: every exported name has a caller, and the README's
library example runs."""

import ast
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wignerq

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _package_references():
    """Map each name the package's modules (not the ``__init__`` files)
    refer to onto the top-level definitions that refer to it; statements
    that define no name count as the owner ``None``."""
    refs = {}
    for path in (ROOT / "src" / "wignerq").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                owner = next((t.id for t in targets if isinstance(t, ast.Name)), None)
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name is not None and name != owner:
                    refs.setdefault(name, set()).add(owner)
    return refs


def test_every_public_name_has_a_caller():
    # a caller is code in the package outside the name's own definition,
    # a bench/ script, or the README; package code that is itself a
    # public name without a caller does not count
    public = set(wignerq.__all__)
    outside = "\n".join([README, *(p.read_text(encoding="utf-8") for p in (ROOT / "bench").glob("*.py"))])
    live = {name for name in public if re.search(rf"\b{re.escape(name)}\b", outside)}
    refs = _package_references()
    grew = True
    while grew:
        grew = False
        for name in sorted(public - live):
            if any(owner not in public or owner in live for owner in refs.get(name, ())):
                live.add(name)
                grew = True
    dead = sorted(public - live)
    assert not dead, f"public names without a caller: {dead}"


def test_readme_library_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["q"].value == pytest.approx(21 / 31104, rel=1e-6)
    assert namespace["zeta_star"] == pytest.approx(math.pi / 6, abs=1e-4)


def _fresh_python(script):
    """Stdout of ``script`` in a new interpreter on this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def test_import_loads_no_numpy():
    # public names resolve on first use; the spectra types need no numpy
    assert _fresh_python("import sys, wignerq; wignerq.MetricKind; print('numpy' in sys.modules)") == "False\n"


def test_integrate_package_holds_only_the_benchmark_spec():
    # the engines' public names come from wignerq or their own modules;
    # the package keeps DEFAULT_2D for bench/ and loads no engine
    script = (
        "import sys, wignerq.integrate as pkg\n"
        "print(sorted(n for n in vars(pkg) if not n.startswith('_')), hasattr(pkg, '__all__'))\n"
        "print(sorted({'numpy', 'wignerq.integrate.quadrature', 'wignerq.integrate.sampling'} & set(sys.modules)))\n"
    )
    assert _fresh_python(script) == "['DEFAULT_2D'] False\n[]\n"


def test_public_names_are_defined_where_sources_says():
    for name, module in wignerq._MODULE_OF.items():
        value = getattr(wignerq, name)
        if callable(value):
            assert value.__module__ == f"wignerq.{module}", name


def test_every_public_name_resolves_and_is_listed():
    listed = dir(wignerq)
    for name in wignerq.__all__:
        assert getattr(wignerq, name) is not None
        assert name in listed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        wignerq.no_such_name


def _wrapped():
    """``bench/spans.py``'s ``WRAPPED``: (module, attribute, layer) triples."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAPPED


def test_every_name_the_benchmark_wraps_resolves():
    # the traced benchmark pass replaces these attributes; each must be
    # there, as the package's own module attribute or a forwarded one
    for module, attr, _ in _wrapped():
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_indicators_forwards_only_the_wrapped_sampler_names():
    # one fence: indicators imports none of the names bench/spans.py wraps
    # on it, and forwards each, and no other, from the engine that defines it
    from wignerq import indicators

    wrapped = {attr for module, attr, _ in _wrapped() if module == "wignerq.indicators"}
    assert set(indicators._BENCH_NAMES) == wrapped
    for name, engine in indicators._BENCH_NAMES.items():
        assert name not in vars(indicators)
        assert getattr(indicators, name).__module__ == f"wignerq.integrate.{engine}"
    with pytest.raises(AttributeError, match="sample_spectra"):
        indicators.sample_spectra
