"""The package's public surface and its modules' imports."""

import ast
import importlib
import pathlib
import re

import numpy as np
import pytest

import conebessel
from conebessel import ball_measure as bm, cone_core, hypergroup_algebra, jack_series as js, wishart


def test_export_list_resolves():
    names = conebessel.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    missing = [name for name in names if not hasattr(conebessel, name)]
    assert not missing, missing


def test_modules_import_only_what_they_use():
    # a name a module imports and never reads is a leftover of a deletion
    src = pathlib.Path(conebessel.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_readme_module_table_names_only_what_exists():
    readme = pathlib.Path(conebessel.__file__).parents[2] / "README.md"
    table = readme.read_text(encoding="utf-8").split("## Modules", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|(.*)\|$", table, re.M)
    assert len(rows) >= 7, rows
    missing = []
    for row in rows:
        module = importlib.import_module(f"conebessel.{row[0]}")
        for span in re.findall(r"`([^`]*)`", row[1]):
            name = re.match(r"\w*", span).group()
            if "_" in name and not hasattr(module, name):
                missing.append(f"{row[0]}.{name}")
    assert not missing, missing


# a stack of zero rows in: a stack out, with zero rows (the series at degree 0);
# an estimator over no draws raises ValueError
_ZERO_ROWS = {
    "bessel_series_eigs": lambda p, e, m, rng: js.bessel_series_eigs(e, p.mu, p.d, 1e-10),
    "character_from_squares": lambda p, e, m, rng: js.character_from_squares(p, np.eye(p.q), m, 1e-10),
    "character_phi_batch": lambda p, e, m, rng: js.character_phi_batch(p, np.eye(p.q), m),
    "translated_density": lambda p, e, m, rng: wishart.translated_density(p, np.eye(p.q), np.eye(p.q), m),
    "conv_square_batch": lambda p, e, m, rng: bm.conv_square_batch(p, np.eye(p.q), np.eye(p.q), 0, rng),
    "conv_sample_batch": lambda p, e, m, rng: bm.conv_sample_batch(p, np.eye(p.q), np.eye(p.q), 0, rng),
    "conv_pairwise_batch": lambda p, e, m, rng: bm.conv_pairwise_batch(p, m, m, rng),
    "jack_C": lambda p, e, m, rng: js.jack_C((2, 1), p.alpha, e),
    "series_layer": lambda p, e, m, rng: js.series_layer(e, p.mu, p.d, 2),
    "sample_ball_batch": lambda p, e, m, rng: bm.sample_ball_batch(p, 0, rng),
    "sample_standard_batch": lambda p, e, m, rng: wishart.sample_standard_batch(p, 0, rng),
    "sample_scaled_batch": lambda p, e, m, rng: wishart.sample_scaled_batch(wishart.WishartSpec(p), 0, rng),
    "psd_sqrt_batch": lambda p, e, m, rng: cone_core.psd_sqrt_batch(m),
    "automorphism_apply_batch": lambda p, e, m, rng: hypergroup_algebra.automorphism_apply_batch(2.0 * np.eye(p.q), m),
}
_NO_DRAWS = {
    "phi_bochner": lambda p, e, m, rng: bm.phi_bochner(p, np.eye(p.q), np.eye(p.q), 0, rng),
    "conv_expect": lambda p, e, m, rng: bm.conv_expect(p, lambda z: z[:, 0, 0].real, np.eye(p.q), np.eye(p.q), 0, rng),
    "support_window_fraction": lambda p, e, m, rng: bm.support_window_fraction(p, np.eye(p.q), 0.5, m, 1e-9),
    "EmpiricalMeasure": lambda p, e, m, rng: bm.EmpiricalMeasure(p, m),
    "character_panel": lambda p, e, m, rng: js.character_panel(p, [np.eye(p.q)], m),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q, d", [(1, 1), (2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("name", [*_ZERO_ROWS, *_NO_DRAWS])
def test_zero_rows(name, q, d):
    p = conebessel.HypergroupParams(q, d, 1.0 + q * d)
    e, m = np.empty((0, q)), np.empty((0, q, q), dtype=complex if d == 2 else float)
    args = p, e, m, np.random.default_rng(0)
    if name in _NO_DRAWS:
        with pytest.raises(ValueError):
            _NO_DRAWS[name](*args)
        return
    out = _ZERO_ROWS[name](*args)
    if name in ("bessel_series_eigs", "character_from_squares"):
        values, bounds, degree = out
        assert values.shape == bounds.shape == (0,) and degree == 0
    else:
        assert out.shape in ((0,), (0, q, q)), out.shape
