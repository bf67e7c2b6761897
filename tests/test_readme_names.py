"""The README cites package internals by name: each must still exist."""

import importlib
import re
from pathlib import Path


def test_readme_names_resolve():
    """Every backticked `layer.name` in the README is an attribute of that
    fkhomog module; `macro.csv` and `hull.json` are files the CLI writes."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    refs = re.findall(r"`(model|chain|rotation|hull|macro|cli)\.([A-Za-z_]\w*)", text)
    missing = [f"{layer}.{name}" for layer, name in refs if name not in ("csv", "json")
               and not hasattr(importlib.import_module(f"fkhomog.{layer}"), name)]
    assert refs and not missing
